//go:build race

package snmp

const raceEnabled = true
