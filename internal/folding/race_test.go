//go:build race

package folding_test

const raceEnabled = true
