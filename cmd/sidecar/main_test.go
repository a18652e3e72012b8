package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestExitCodes pins the CI-facing exit-code contract — 0 safe, 1 unsafe
// (counterexample printed), 2 usage error, 3 inconclusive (with the
// exhausted budget named) — by calling run() in-process for every flag
// combination instead of spawning a subprocess per case.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("policy.scp", `
@principal
User {
  create: public,
  delete: none,
  email: String { read: public, write: none },
  secret: String { read: none, write: none },
}
`)
	tighten := write("tighten.scm", "User::UpdateFieldReadPolicy(email, none);\n")
	loosen := write("loosen.scm", "User::UpdateFieldReadPolicy(secret, public);\n")

	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  string // substring of stdout
		wantErr  string // substring of stderr
	}{
		{
			name:     "safe migration",
			args:     []string{"-spec", spec, tighten},
			wantCode: 0,
			wantOut:  "OK (1 commands)",
		},
		{
			name:     "unsafe migration prints the counterexample",
			args:     []string{"-spec", spec, loosen},
			wantCode: 1,
			wantOut:  "UNSAFE",
		},
		{
			name:     "exhausted proof budget is UNKNOWN with a reason",
			args:     []string{"-spec", spec, "-proof-timeout", "1ns", tighten},
			wantCode: 3,
			wantOut:  "UNKNOWN",
		},
		{
			name:     "strictness check accepts a tightening",
			args:     []string{"-spec", spec, "-check-strictness", "User", "public", "none"},
			wantCode: 0,
			wantOut:  "at least as strict",
		},
		{
			name:     "strictness check rejects a loosening",
			args:     []string{"-spec", spec, "-check-strictness", "User", "none", "public"},
			wantCode: 1,
			wantOut:  "UNSAFE",
		},
		{
			name:     "strictness check degrades to UNKNOWN on a dead budget",
			args:     []string{"-spec", spec, "-proof-timeout", "1ns", "-check-strictness", "User", "public", "none"},
			wantCode: 3,
			wantOut:  "UNKNOWN",
		},
		{
			name:     "no scripts is a usage error",
			args:     []string{"-spec", spec},
			wantCode: 2,
			wantErr:  "no migration scripts",
		},
		{
			name:     "unknown flag is a usage error",
			args:     []string{"-definitely-not-a-flag"},
			wantCode: 2,
		},
		{
			name:     "the removed -incremental flag is a usage error",
			args:     []string{"-spec", spec, "-incremental", tighten},
			wantCode: 2,
		},
		{
			name:     "apply without a data dir is a usage error",
			args:     []string{"-spec", spec, "-apply", tighten},
			wantCode: 2,
			wantErr:  "-apply needs -data-dir",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.wantCode, stdout.String(), stderr.String())
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantOut, stdout.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
		})
	}
}

// TestApply drives -apply end to end: a script applied to a fresh data
// directory, skipped on re-run, with the rest of the history applied after
// it.
func TestApply(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	boot := write("001_boot.scm", `
CreateModel(@principal User {
  create: public,
  delete: none,
  name: String { read: public, write: u -> [u] },
});
`)
	bio := write("002_bio.scm", `
User::AddField(bio: String { read: public, write: u -> [u] }, u -> "");
`)
	data := filepath.Join(dir, "data")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-apply", "-data-dir", data, boot}, &stdout, &stderr); code != 0 {
		t.Fatalf("first apply: code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "APPLIED") {
		t.Fatalf("first apply output:\n%s", stdout.String())
	}

	// Replaying the history plus a new script: the old one is skipped, the
	// new one is applied.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-apply", "-data-dir", data, boot, bio}, &stdout, &stderr); code != 0 {
		t.Fatalf("second apply: code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "001_boot.scm: already applied, skipped") ||
		!strings.Contains(stdout.String(), "002_bio.scm: APPLIED") {
		t.Fatalf("second apply output:\n%s", stdout.String())
	}
}

// TestUnknownReportsTheExhaustedBudget checks that inconclusive output
// names what ran out, so CI logs distinguish "raise the budget" from a
// real violation.
func TestUnknownReportsTheExhaustedBudget(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "policy.scp")
	if err := os.WriteFile(spec, []byte(`
@principal
User {
  create: public,
  delete: none,
  email: String { read: public, write: none },
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(dir, "m.scm")
	if err := os.WriteFile(script, []byte("User::UpdateFieldReadPolicy(email, none);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", spec, "-proof-timeout", "1ns", script}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit code %d, want 3\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "deadline") {
		t.Fatalf("UNKNOWN output does not name the exhausted budget:\n%s", stdout.String())
	}
}

// TestTraceDeterministic runs the visitday corpus (§5.1) twice with
// -trace and asserts the traces match event for event once duration_ns —
// the only wall-clock-dependent field — is ignored. -trace forces
// sequential proofs, so event order is part of the contract.
func TestTraceDeterministic(t *testing.T) {
	scripts, err := filepath.Glob(filepath.Join("..", "..", "internal", "casestudies", "corpus", "visitday", "*.scm"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("visitday corpus not found: %v", err)
	}
	sort.Strings(scripts)

	runOnce := func(path string) []map[string]any {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := append([]string{"-trace", path}, scripts...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("trace line %d is not JSON: %v\n%s", i+1, err, line)
			}
			fp, _ := ev["fingerprint"].(string)
			if len(fp) != 32 {
				t.Fatalf("trace line %d: fingerprint %q is not 32 hex chars", i+1, fp)
			}
			if v, _ := ev["verdict"].(string); v == "" {
				t.Fatalf("trace line %d: missing verdict", i+1)
			}
			if _, ok := ev["duration_ns"]; !ok {
				t.Fatalf("trace line %d: missing duration_ns", i+1)
			}
			delete(ev, "duration_ns")
			events = append(events, ev)
		}
		return events
	}

	dir := t.TempDir()
	a := runOnce(filepath.Join(dir, "a.jsonl"))
	b := runOnce(filepath.Join(dir, "b.jsonl"))
	if len(a) == 0 {
		t.Fatal("trace is empty; the corpus should emit one event per proof")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("traces differ across runs:\nrun A: %d events\nrun B: %d events", len(a), len(b))
	}
}

// TestStatsWarmVerdictDB runs the visitday history twice against one
// -verdict-db with -stats. The warm rerun answers every query from the
// store, so its -stats line reports no solves and the store's hits.
func TestStatsWarmVerdictDB(t *testing.T) {
	scripts, err := filepath.Glob(filepath.Join("..", "..", "internal", "casestudies", "corpus", "visitday", "*.scm"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("visitday corpus not found: %v", err)
	}
	sort.Strings(scripts)
	db := filepath.Join(t.TempDir(), "verdicts.db")
	runOnce := func() string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := append([]string{"-verdict-db", db, "-stats"}, scripts...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
		}
		return stderr.String()
	}
	persistHits := regexp.MustCompile(`persist (\d+) hit / (\d+) miss`)

	cold := runOnce()
	if strings.Contains(cold, "· 0 queries solved") {
		t.Fatalf("cold run solved nothing:\n%s", cold)
	}
	warm := runOnce()
	if !strings.Contains(warm, "· 0 queries solved") {
		t.Errorf("warm run solved queries:\n%s", warm)
	}
	m := persistHits.FindStringSubmatch(warm)
	if m == nil || m[1] == "0" || m[2] != "0" {
		t.Errorf("warm run: want persist hits and no misses:\n%s", warm)
	}
	if !regexp.MustCompile(`verdict-db 0 corrupt · [1-9]\d* stored`).MatchString(warm) {
		t.Errorf("warm run: missing verdict-db line:\n%s", warm)
	}
}
