//go:build !race

package snmpcoll_test

const raceEnabled = false
