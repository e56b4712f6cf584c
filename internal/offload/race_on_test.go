//go:build race

package offload

// raceEnabled reports a -race build, where sync.Pool drops items at random
// on purpose, so allocation pins on pooled paths cannot hold.
const raceEnabled = true
