package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expectedSeed1 holds the output digest of every workload at seed 1 (the
// rendered δ-graph and IF tables, the QoS sweep and timeline tables, the
// fleet summary tables, and the what-if report bytes of the request
// catalogue). A run at seed 1 whose first iteration renders anything else
// fails. Refresh it from the "# <workload> digest" lines of seed-1 runs
// when a change moves the model's output on purpose.
//
//go:embed expected/seed1.json
var expectedSeed1 []byte

// expectedDigest returns the committed digest for a workload and seed.
func expectedDigest(workload string, seed uint64) (string, bool) {
	if seed != 1 {
		return "", false
	}
	var m map[string]string
	if err := json.Unmarshal(expectedSeed1, &m); err != nil {
		panic(fmt.Sprintf("expected/seed1.json: %v", err))
	}
	d, ok := m[workload]
	return d, ok
}
