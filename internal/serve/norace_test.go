//go:build !race

package serve

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and pooled-buffer allocation pins cannot hold.
const raceEnabled = false
