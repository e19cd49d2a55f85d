//go:build race

package splitbft_test

// raceDetector reports whether the tests run under the race detector, which
// slows every goroutine several-fold.
const raceDetector = true
