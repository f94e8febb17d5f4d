//go:build race

package keystone

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random and allocation budgets do not hold.
const raceEnabled = true
