package config

// Centralized RLNOC_* environment-variable handling. A knob that can
// arrive from three places — an explicit flag/config value, an
// environment variable, a built-in default — resolves through
// ResolveString with a fixed precedence: explicit > environment >
// default.

import "os"

// The simulator's environment variables.
const (
	// EnvStepWorkers is read by nothing: Step is sequential (DESIGN.md
	// §11). It stays only because the frozen benchmark module unsets it
	// (benchmark/main.go:113).
	EnvStepWorkers = "RLNOC_STEP_WORKERS"
	// EnvChecks arms the runtime invariant checks when Config.Checks is
	// empty (same syntax: "off" or "all").
	EnvChecks = "RLNOC_CHECKS"
)

// ResolveString resolves a string knob: a non-empty explicit value wins,
// then a non-empty environment variable, then the default.
func ResolveString(env, explicit, def string) string {
	if explicit != "" {
		return explicit
	}
	if v := os.Getenv(env); v != "" {
		return v
	}
	return def
}
