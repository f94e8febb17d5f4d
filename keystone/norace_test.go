//go:build !race

package keystone

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
