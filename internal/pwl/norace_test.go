//go:build !race

package pwl

const raceEnabled = false
