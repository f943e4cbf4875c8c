package main

// Pinned correctness. expected.json holds, per scale, workload and pinned
// seed, a SHA-256 over the canonical JSON of every Result the workload
// produced. A run at a pinned seed recomputes and compares; other seeds
// check invariants only. The file changes only through -update-expected.

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// pinnedSeeds are the seeds expected.json covers.
var pinnedSeeds = []int64{1, 2}

const expectedPath = "benchmark/expected.json"

//go:embed expected.json
var expectedJSON []byte

type pins struct {
	GOARCH  string            `json:"goarch"` // digests hold on this architecture only
	Digests map[string]string `json:"digests"`
}

func pinKey(scale, workload string, seed int64) string {
	return fmt.Sprintf("%s/%s/%d", scale, workload, seed)
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return p, fmt.Errorf("expected.json: %w", err)
	}
	return p, nil
}

func digestOf(results []namedResult) (string, error) {
	data, err := json.Marshal(results)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// updatePin rewrites one digest in the expected.json on disk (the embedded
// copy is what was built in; children of one -update-expected run each
// merge into the file in turn).
func updatePin(key, digest string) error {
	p := pins{Digests: map[string]string{}}
	if data, err := os.ReadFile(expectedPath); err == nil {
		if err := json.Unmarshal(data, &p); err != nil {
			return fmt.Errorf("%s: %w", expectedPath, err)
		}
	}
	if p.GOARCH != runtime.GOARCH {
		p = pins{GOARCH: runtime.GOARCH, Digests: map[string]string{}}
	}
	p.Digests[key] = digest
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}
