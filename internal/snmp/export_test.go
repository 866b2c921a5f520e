package snmp

// RaceEnabled tells the external tests whether the race detector is on.
const RaceEnabled = raceEnabled
