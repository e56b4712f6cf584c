//go:build !race

package deser

const raceEnabled = false
