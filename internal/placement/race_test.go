//go:build race

package placement

// raceDetector reports whether the tests run under the race detector, whose
// instrumentation allocates beside the code under test.
const raceDetector = true
