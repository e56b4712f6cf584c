//go:build !race

package offload

const raceEnabled = false
