package multiprobe

import "bilsh/internal/metrics"

// Probe-generation stage counters. Sequence generation sits on the hot
// path (one call per table per query under ProbeMulti), so the counters
// are resolved once here and updated with single atomic adds; the
// process-wide totals let an operator see how much probe work each
// lattice family is generating (documented in docs/metrics.md).
var (
	zmSequences = seqCounter("zm")
	zmProbes    = probeCounter("zm")
	e8Sequences = seqCounter("e8")
	e8Probes    = probeCounter("e8")
)

func seqCounter(lat string) *metrics.Counter {
	return metrics.Default().Counter(
		"bilsh_multiprobe_sequences_total",
		"Probe sequences generated, by lattice family.",
		metrics.L("lattice", lat))
}

func probeCounter(lat string) *metrics.Counter {
	return metrics.Default().Counter(
		"bilsh_multiprobe_probes_total",
		"Individual probe codes emitted, by lattice family.",
		metrics.L("lattice", lat))
}
