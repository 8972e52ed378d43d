package main

import (
	"bytes"
	"testing"
)

// TestFaultsHonorsQoS pins that -qos reaches the -faults mode: on a
// degraded OST the fair-share scheduler changes the victim's elapsed time,
// so the healthy-vs-faulted tables under fairshare must differ from the
// unmitigated ones.
func TestFaultsHonorsQoS(t *testing.T) {
	out := func(q string) []byte {
		var b bytes.Buffer
		args := []string{"-faults", "-backend", "hdd", "-run", "degraded-ost-victim", "-tsv", "-qos", q}
		if err := realMain(args, &b); err != nil {
			t.Fatalf("-qos %s: %v", q, err)
		}
		return b.Bytes()
	}
	off, fair := out("off"), out("fairshare")
	if len(off) == 0 {
		t.Fatal("-faults printed nothing")
	}
	if bytes.Equal(off, fair) {
		t.Fatalf("-faults -qos fairshare printed the same bytes as -qos off:\n%s", off)
	}
}
