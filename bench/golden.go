package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"flowkv/internal/harness"
	"flowkv/internal/nexmark/queries"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
)

// golden.json pins the oracle itself. The oracle answers for any seed;
// for the configurations recorded here its digests must also equal the
// ones an independent run of the same query over the in-memory backend
// produced when -write-golden was last used, so a change that shifts the
// generator, a query or the oracle cannot pass unnoticed.
//
//go:embed golden.json
var goldenJSON []byte

// goldenEntry is the result digest of one stream prefix.
type goldenEntry struct {
	Stream int    `json:"stream"`
	Tuples int64  `json:"tuples"`
	Digest Digest `json:"digest"`
}

func goldenKey(w *Workload, cfg Config) string {
	return fmt.Sprintf("%s/seed=%d/seconds=%g/block=%d", w.Name, cfg.Seed, cfg.Seconds, cfg.blockEvents())
}

// checkGolden compares the oracle's digests with the recorded ones, when
// this configuration is recorded.
func checkGolden(w *Workload, cfg Config, expected []map[int64]Digest) error {
	golden := map[string][]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("bench: golden.json: %w", err)
	}
	for _, g := range golden[goldenKey(w, cfg)] {
		got, ok := expected[g.Stream][g.Tuples]
		if !ok {
			return fmt.Errorf("bench: %s: golden.json records a stream length (%d tuples) this configuration no longer runs: regenerate it with -write-golden",
				w.Name, g.Tuples)
		}
		if got != g.Digest {
			return fmt.Errorf("bench: %s: oracle disagrees with golden.json on stream %d over %d tuples: %+v vs %+v",
				w.Name, g.Stream, g.Tuples, got, g.Digest)
		}
	}
	return nil
}

// WriteGolden runs every workload's input, for each configuration, over
// the in-memory backend (capacity raised so it cannot run out) and
// writes the result digests to path.
func WriteGolden(path string, cfgs []Config) error {
	golden := map[string][]goldenEntry{}
	for _, cfg := range cfgs {
		cfg.fill()
		for _, w := range Workloads {
			var blk *Block
			for stream, qs := range w.Queries {
				for _, n := range planFor(w, cfg).cuts() {
					mem := harness.ScaledStoreOptions().Mem
					mem.CapacityBytes = 1 << 40
					q, err := queries.Build(qs.Query, queries.Config{Backend: statebackend.KindInMem,
						Parallelism: qs.Par, WindowMs: qs.WindowMs, Mem: mem})
					if err != nil {
						return err
					}
					if blk == nil {
						blk = NewBlock(cfg.Seed, cfg.blockEvents(), w.BidderKeys, q.Adapt)
					}
					var d Digest
					if _, err := spe.Run(q.Pipeline, newBlockSource(blk, n).Emit, func(t spe.Tuple) { d.add(t.Key, t.TS, t.Value) }); err != nil {
						return err
					}
					key := goldenKey(w, cfg)
					golden[key] = append(golden[key], goldenEntry{Stream: stream, Tuples: n, Digest: d})
				}
			}
		}
	}
	for _, g := range golden {
		sort.Slice(g, func(i, j int) bool {
			if g[i].Stream != g[j].Stream {
				return g[i].Stream < g[j].Stream
			}
			return g[i].Tuples < g[j].Tuples
		})
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
