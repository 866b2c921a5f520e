//go:build !race

package modeler

const raceEnabled = false
