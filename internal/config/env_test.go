package config

import "testing"

// The helper must resolve flag > env > default.

func TestResolveStringPrecedence(t *testing.T) {
	const env = "RLNOC_TEST_STRING"

	if v := ResolveString(env, "", "fallback"); v != "fallback" {
		t.Fatalf("unset env: got %q, want fallback", v)
	}

	t.Setenv(env, "from-env")
	if v := ResolveString(env, "", "fallback"); v != "from-env" {
		t.Fatalf("env set: got %q, want from-env", v)
	}
	if v := ResolveString(env, "explicit", "fallback"); v != "explicit" {
		t.Fatalf("explicit beats env: got %q, want explicit", v)
	}

	t.Setenv(env, "")
	if v := ResolveString(env, "", "fallback"); v != "fallback" {
		t.Fatalf("empty env: got %q, want fallback", v)
	}
}

// The real variable names are part of the contract: flags and docs refer
// to them, so renaming one is an API break this test makes visible.
func TestEnvVarNames(t *testing.T) {
	if EnvChecks != "RLNOC_CHECKS" ||
		EnvSnapshotDir != "RLNOC_SNAPSHOT_DIR" ||
		EnvCampaignDir != "RLNOC_CAMPAIGN_DIR" {
		t.Fatalf("env var names drifted: %q %q %q", EnvChecks, EnvSnapshotDir, EnvCampaignDir)
	}
}
