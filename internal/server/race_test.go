//go:build race

package server

// raceEnabled reports a -race build: its sync.Pool drops a random quarter of
// Puts, so allocation budgets do not hold.
const raceEnabled = true
