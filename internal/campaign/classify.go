package campaign

// Terminal-state classification for fault campaigns, extracted from the
// original cmd/experiments chaos runner so the -chaos battery and the
// nocserve daemon share one code path. Every run must drain, hit its
// cycle budget, or terminate through the invariant watchdog with a
// conservation ledger that still balances; anything else — a wedge, an
// unbalanced account — is the failure the campaign exists to catch.

import (
	"errors"
	"fmt"

	"rlnoc/internal/core"
	"rlnoc/internal/invariant"
	"rlnoc/internal/network"
	"rlnoc/internal/stats"
)

// Classify maps one finished (or failed) measurement run to a campaign
// outcome. iv is non-nil for OutcomeWatchdog (the invariant report).
// A non-nil error return means the run failed in an unexpected way —
// not a classification, a fault of the harness or host — and the
// supervisor marks the job dead.
func Classify(res core.Result, merr error, net *network.Network) (outcome string, iv *invariant.Error, err error) {
	led := net.ConservationLedger()
	switch {
	case merr == nil && res.Drained && led.Balanced():
		return OutcomeDrained, nil, nil
	case merr == nil && led.Balanced():
		return OutcomeBudget, nil, nil
	case errors.As(merr, &iv) && led.Balanced():
		return OutcomeWatchdog, iv, nil
	case merr != nil && !errors.As(merr, &iv):
		return "", nil, merr
	default:
		return OutcomeWedged, nil, nil
	}
}

// FormatDetail renders the one-line diagnostic surface of a run: dead
// routers, unreachable pairs, latency, drop reasons, per-kill recovery
// times, the conservation ledger, and (for qroute) routing telemetry.
func FormatDetail(net *network.Network, res core.Result) string {
	detail := fmt.Sprintf("dead=%d unreachable=%d lat=%.1f drops[%s] recover[%s] %s",
		net.DeadRouters(), net.UnreachablePairs(), res.MeanLatency,
		formatDrops(net.Stats().DropCounts()), net.RecoveryLog().Format(), net.ConservationLedger())
	if net.QRouteEnabled() {
		detail += " " + net.QRouteTelemetry().Format()
	}
	return detail
}

// formatDrops renders the non-zero drop-reason tallies compactly.
func formatDrops(counts [stats.NumDropReasons]int64) string {
	s := ""
	for r := stats.DropReason(0); r < stats.NumDropReasons; r++ {
		if counts[r] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", r, counts[r])
	}
	if s == "" {
		return "none"
	}
	return s
}
