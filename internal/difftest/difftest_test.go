package difftest

import (
	"flag"
	"fmt"
	"testing"
)

// difftestOps scales the operation stream per configuration × seed. CI
// runs the harness with -difftest.ops 10000 under -race; the default keeps
// a plain `go test ./...` quick.
var difftestOps = flag.Int("difftest.ops", 2000, "operations per differential configuration and seed")

// seedCorpus is the default seed set; every (config, seed) pair runs the
// full stream.
var seedCorpus = []int64{1, 2, 3}

// TestDifferential runs the oracle-vs-system comparison for every
// configuration over the seed corpus.
func TestDifferential(t *testing.T) {
	for _, cfgName := range Configs {
		for _, seed := range seedCorpus {
			cfgName, seed := cfgName, seed
			t.Run(fmt.Sprintf("%s/seed=%d", cfgName, seed), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Seed: seed, Ops: *difftestOps, Partitions: 2 + int(seed)%3}
				if cfgName == "durable" || cfgName == "durable-partitioned" ||
					cfgName == "txn" || cfgName == "server" || cfgName == "blocks" ||
					cfgName == "replica" || cfgName == "composite-durable" {
					cfg.Dir = t.TempDir()
				}
				if err := Run(cfgName, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRunRejectsUnknownConfig pins the config vocabulary.
func TestRunRejectsUnknownConfig(t *testing.T) {
	if err := Run("no-such-config", Config{Seed: 1, Ops: 1}); err == nil {
		t.Fatal("unknown config accepted")
	}
}
