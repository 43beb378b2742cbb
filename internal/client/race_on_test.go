//go:build race

package client

// raceEnabled reports whether this test binary was built with the race
// detector; allocation-count guards skip under it.
const raceEnabled = true
