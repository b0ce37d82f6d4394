package fem

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/linalg"
)

// TestGoldenSolutionBits pins the exact bits of U for one jittered plate
// on each direct route: natural-order and RCM envelope Cholesky, and
// substructure condensation.  Each digest is FNV-1a over the
// little-endian math.Float64bits of every entry of U, in dof order.  The
// expected digests were computed with the uniform-band Cholesky kernel
// these routes used before envelope storage replaced it; the envelope
// kernel sums in the same order, so any change here is a change of
// answers, not of rounding noise to be re-pinned.
func TestGoldenSolutionBits(t *testing.T) {
	o := RectGridOpts{NX: 12, NY: 6, W: 12, H: 6, Mat: Steel(), ClampLeft: true, Jitter: 0.2, Seed: 7}
	cases := []struct {
		name string
		opts SolveOpts
		want uint64
	}{
		{"cholesky", SolveOpts{Backend: linalg.BackendCholesky}, 0xa11a0aa04124d703},
		{"cholesky-rcm", SolveOpts{Backend: linalg.BackendCholeskyRCM}, 0xa39071cf77570956},
		// cholesky-env is an alias running cholesky-rcm's plan.
		{"cholesky-env", SolveOpts{Backend: linalg.BackendCholeskyEnv}, 0xa39071cf77570956},
		{"substructures-4", SolveOpts{Substructured: 4}, 0x9ea43bdc7f6774c9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := RectGrid("golden", o)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := Solve(context.Background(), m, EndLoad("tip", o, 200, -800), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, v := range sol.U {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("U digest = %#x over %d dofs, want %#x", got, len(sol.U), tc.want)
			}
		})
	}
}
