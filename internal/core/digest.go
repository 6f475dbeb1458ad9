package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
)

// ReportDigest returns a hex SHA-256 fingerprint covering every field
// of the report: the headline JSON, the Figure 2 traffic-matrix entries
// bit-by-bit, and the formatted remainder of the struct (fmt prints
// maps in sorted key order, so the formatting is deterministic). Two
// reports produced by deterministically-equivalent executions — any
// GOMAXPROCS, AnalyzeRun or RunAnalyze, fleet or standalone — hash
// identically. The digest is what TestFleetMatchesStandalone asserts
// and what the dcsweep manifest records per run.
func ReportDigest(rep *Report) (string, error) {
	j, err := rep.JSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(j)
	if rep.Fig2.TM != nil {
		rep.Fig2.TM.ForEach(func(src, dst int, bytes float64) {
			fmt.Fprintf(h, "%d %d %x\n", src, dst, math.Float64bits(bytes))
		})
	}
	cp := *rep
	cp.Fig2.TM = nil
	fmt.Fprintf(h, "%+v", cp)
	return hex.EncodeToString(h.Sum(nil)), nil
}
