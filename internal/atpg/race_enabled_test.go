//go:build race

package atpg

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation changes allocation behavior; the
// allocation-budget guard skips itself under it (scripts/check.sh runs
// it in a dedicated race-free stage).
const raceEnabled = true
