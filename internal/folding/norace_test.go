//go:build !race

package folding_test

const raceEnabled = false
