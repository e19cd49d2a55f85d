package splitbft_test

import (
	"os"
	"testing"

	"github.com/splitbft/splitbft/internal/transport"
)

// TestMain runs the package with the TCP read loops' frame-buffer poison
// on, so every test over real sockets also checks that no handler keeps the
// transport's buffer past its return (transport.Handler).
func TestMain(m *testing.M) {
	transport.PoisonInbound.Store(true)
	os.Exit(m.Run())
}
