//go:build race

package modeler

const raceEnabled = true
