package scenario

// Serial-oracle conformance suite for the sharded event kernel: every
// built-in scenario, on both storage backends, must produce a canonical
// result (goldenResult — completion vectors, δ points with diagnostics and
// event counts, pairwise IF matrices) that is byte-for-byte identical at
// every shard count. The serial engine (shards=1) is the oracle; the
// sharded kernel is only allowed to change wall-clock time, never a single
// output byte. Because sharded results equal serial results by
// construction, the golden files never need regeneration for a shard-count
// change — `-update` exists for intentional *model* changes only.

import (
	"crypto/sha256"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// conformanceShardCounts returns the shard counts to check against the
// serial oracle for a spec with the given server count: a minimal split, a
// mid split, and the maximum useful count (clients + one shard per server).
func conformanceShardCounts(servers int) []int {
	return []int{2, 4, 1 + servers}
}

func TestShardConformance(t *testing.T) {
	backends := []cluster.BackendKind{cluster.HDD, cluster.SSD}
	builtins := Builtin()
	if testing.Short() {
		// -race CI smoke: one backend, every scenario, the max shard count
		// (the config that crosses the most shard boundaries).
		backends = backends[:1]
	}
	for _, s := range builtins {
		for _, backend := range backends {
			s, backend := s, backend
			t.Run(s.Name+"@"+backend.String(), func(t *testing.T) {
				t.Parallel()
				smoke := s.Smoke()
				servers := smoke.Servers
				if servers == 0 {
					servers = cluster.Default().Servers
				}
				serial, err := Run(smoke, backend, core.Runner{Parallelism: 1, Shards: 1})
				if err != nil {
					t.Fatal(err)
				}
				want := goldenResult(serial)
				counts := conformanceShardCounts(servers)
				if testing.Short() {
					counts = counts[len(counts)-1:]
				}
				for _, k := range counts {
					r, err := Run(smoke, backend, core.Runner{Parallelism: 1, Shards: k})
					if err != nil {
						t.Fatal(err)
					}
					if got := goldenResult(r); got != want {
						t.Errorf("shards=%d diverges from serial oracle (sha256 %x vs %x):\n got:\n%s\nwant:\n%s",
							k, sha256.Sum256([]byte(got)), sha256.Sum256([]byte(want)), got, want)
					}
				}
			})
		}
	}
}
