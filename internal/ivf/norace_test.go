//go:build !race

package ivf

const raceEnabled = false
