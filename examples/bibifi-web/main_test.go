package main

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServesAndRecovers boots the server durably (-fsync always) on an
// ephemeral port (-addr :0) with a metrics listener, hits it over HTTP,
// checks the scrape shows real work in every layer, kills it without
// warning, and boots it again on the same -data-dir: the second run must
// recover the logged writes instead of reseeding. Skipped under -short: it
// builds and runs the real binary.
func TestServesAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "bibifi-web")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(t.TempDir(), "data")

	// start launches the server and reads its banner up to the listen
	// address; the lines before it include the recovery report and the
	// metrics address.
	start := func() (*exec.Cmd, string, string) {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir,
			"-fsync", "always", "-metrics-addr", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout // interleave; only the banner is parsed
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var banner strings.Builder
		addr := ""
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			banner.WriteString(line + "\n")
			if i := strings.LastIndex(line, "listening on "); i >= 0 {
				addr = strings.TrimSpace(line[i+len("listening on "):])
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("server never reported a listen address; output:\n%s", banner.String())
		}
		go io.Copy(io.Discard, stdout) // keep the pipe drained
		return cmd, addr, banner.String()
	}

	get := func(addr, path string) string {
		t.Helper()
		var lastErr error
		for i := 0; i < 50; i++ {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				lastErr = err
				time.Sleep(20 * time.Millisecond)
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
			}
			return string(body)
		}
		t.Fatalf("GET %s never succeeded: %v", path, lastErr)
		return ""
	}

	cmd, addr, banner := start()
	if strings.Contains(banner, "recovered") {
		t.Fatalf("fresh data dir claims recovery:\n%s", banner)
	}
	first := get(addr, "/announcements")
	checkMetrics(t, banner, get)
	// Crash: no shutdown hook runs, so the WAL alone carries the state.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	cmd, addr, banner = start()
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	if !strings.Contains(banner, "recovered") {
		t.Fatalf("restart did not recover logged writes:\n%s", banner)
	}
	if second := get(addr, "/announcements"); second != first {
		t.Fatalf("announcements changed across crash:\n%s\n---\n%s", first, second)
	}
}

// checkMetrics scrapes the metrics listener named in banner and requires
// real work from every layer: policy checks from the request path, fsyncs
// from the write-ahead log, and verdict-cache hits from the boot
// migrations' duplicate strictness proofs.
func checkMetrics(t *testing.T, banner string, get func(addr, path string) string) {
	t.Helper()
	const prefix = "metrics on http://"
	i := strings.Index(banner, prefix)
	if i < 0 {
		t.Fatalf("no metrics address in banner:\n%s", banner)
	}
	addr, _, _ := strings.Cut(banner[i+len(prefix):], "/metrics")
	scrape := get(addr, "/metrics")
	for _, name := range []string{
		"scooter_orm_reads_checked_total",
		"scooter_wal_fsyncs_total",
		"scooter_verify_cache_hits_total",
	} {
		value := ""
		for _, line := range strings.Split(scrape, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				value = v
			}
		}
		if value == "" || value == "0" {
			t.Errorf("metric %s missing or zero (got %q)", name, value)
		}
	}
}

// TestFollowerServesReplicatedState boots a primary with -serve-replication
// and a second process with -follow, and checks that the replica serves the
// primary's pages from replicated state — including the policy-checked
// profile endpoint. Skipped under -short: it builds and runs the binary.
func TestFollowerServesReplicatedState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "bibifi-web")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// start launches the binary and scans the banner for the listen address,
	// (on the primary) the replication address, and the first seeded user id.
	start := func(args ...string) (addr, repl, userID string) {
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		var banner strings.Builder
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			banner.WriteString(line + "\n")
			if i := strings.LastIndex(line, "replication on "); i >= 0 {
				repl = strings.TrimSpace(line[i+len("replication on "):])
			}
			if i := strings.Index(line, "(ids "); i >= 0 {
				rest := line[i+len("(ids "):]
				if j := strings.Index(rest, ".."); j >= 0 {
					// IDs render as "#10": keep only the number.
					userID = strings.TrimLeft(rest[:j], "#")
				}
			}
			if i := strings.LastIndex(line, "listening on "); i >= 0 {
				addr = strings.TrimSpace(line[i+len("listening on "):])
				break
			}
		}
		if addr == "" {
			t.Fatalf("no listen address in output:\n%s", banner.String())
		}
		go io.Copy(io.Discard, stdout)
		return addr, repl, userID
	}

	get := func(addr, path, userID string) (int, string) {
		t.Helper()
		req, err := http.NewRequest("GET", "http://"+addr+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if userID != "" {
			req.Header.Set("X-User-Id", userID)
		}
		var lastErr error
		for i := 0; i < 50; i++ {
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				lastErr = err
				time.Sleep(20 * time.Millisecond)
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(body)
		}
		t.Fatalf("GET %s never succeeded: %v", path, lastErr)
		return 0, ""
	}

	primAddr, replAddr, userID := start(
		"-addr", "127.0.0.1:0",
		"-data-dir", filepath.Join(t.TempDir(), "primary"),
		"-serve-replication", "127.0.0.1:0")
	if replAddr == "" {
		t.Fatal("primary never reported its replication address")
	}
	if userID == "" {
		t.Fatal("primary never reported its seeded user ids")
	}
	follAddr, _, _ := start(
		"-addr", "127.0.0.1:0",
		"-data-dir", filepath.Join(t.TempDir(), "follower"),
		"-follow", replAddr)

	code, want := get(primAddr, "/announcements", "")
	if code != http.StatusOK {
		t.Fatalf("primary announcements: %d\n%s", code, want)
	}
	// The follower converges asynchronously: retry until its page matches
	// the primary's byte for byte.
	var got string
	for i := 0; i < 250; i++ {
		if _, got = get(follAddr, "/announcements", ""); got == want {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got != want {
		t.Fatalf("follower never converged:\n%s\n---\n%s", want, got)
	}

	// Policy enforcement on the replica: a user reads their own profile,
	// an unauthenticated request is refused. Users are seeded after the
	// announcements, so retry until they replicate too.
	var prof string
	for i := 0; i < 250; i++ {
		if code, prof = get(follAddr, "/profile", userID); code == http.StatusOK {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code != http.StatusOK || !strings.Contains(prof, "@example.com") {
		t.Fatalf("follower profile: %d\n%s", code, prof)
	}
	if code, _ = get(follAddr, "/profile", ""); code != http.StatusForbidden {
		t.Fatalf("unauthenticated profile on follower: %d", code)
	}
}
