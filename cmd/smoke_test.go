// Package cmd holds the smoke test for the binaries below it: each is
// built from source and driven once through the surface a user would
// touch, offline, over loopback only.
package cmd

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"oddci/internal/experiments"
)

func TestBinaries(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./oddci-sim", "./oddci-blast", "./oddci-coordinator", "./oddci-node")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run executes one built binary to completion and returns its stdout.
	run := func(t *testing.T, name string, args ...string) string {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
		}
		return string(out)
	}

	t.Run("oddci-sim -list", func(t *testing.T) {
		got := strings.Fields(run(t, "oddci-sim", "-list"))
		if want := experiments.IDs(); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("listed %v, want experiments.IDs() = %v", got, want)
		}
	})

	t.Run("oddci-sim -exp table1 -quick", func(t *testing.T) {
		if out := run(t, "oddci-sim", "-exp", "table1", "-quick"); !strings.Contains(out, "table1") {
			t.Fatalf("output does not name the experiment:\n%s", out)
		}
	})

	t.Run("oddci-sim -exp fleet -quick", func(t *testing.T) {
		out := run(t, "oddci-sim", "-exp", "fleet", "-quick")
		if !strings.Contains(out, "== fleet:") || strings.Count(out, "  hold") != 2 {
			t.Fatalf("want both fleet runs inside their analytic bounds:\n%s", out)
		}
	})

	t.Run("oddci-blast finds planted fragments", func(t *testing.T) {
		out := run(t, "oddci-blast", "-synth-db", "50x400", "-synth-query", "120", "-plant", "2")
		m := regexp.MustCompile(`hits ≥ \d+: (\d+)`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no hit count in output:\n%s", out)
		}
		if n, _ := strconv.Atoi(m[1]); n < 1 {
			t.Fatalf("%d hits with 2 fragments planted:\n%s", n, out)
		}
	})

	stateDir := t.TempDir()
	t.Run("coordinator and node complete a job", func(t *testing.T) {
		// 50 ms tasks and a 10 ms heartbeat at the node's -timescale 100,
		// so the node reports while the job runs.
		coord := exec.Command(filepath.Join(bin, "oddci-coordinator"),
			"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-state-dir", stateDir,
			"-tasks", "4", "-task-seconds", "5", "-heartbeat", "1s", "-timeout", "1m")
		stdout, err := coord.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		coord.Stderr = &stderr
		if err := coord.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() { // no-ops once the coordinator has exited and been waited for
			coord.Process.Kill()
			coord.Wait()
		}()

		// The coordinator prints where its telemetry is served, where it
		// listens and the key a node pins before it serves; the rest of
		// its output follows the node's run. Its own -timeout bounds the
		// reads should the job never finish.
		var telemetry, addr, key, rest string
		lines := bufio.NewScanner(stdout)
		for (addr == "" || key == "") && lines.Scan() {
			if v, ok := strings.CutPrefix(lines.Text(), "telemetry on "); ok {
				telemetry, _, _ = strings.Cut(v, "/metrics")
			} else if v, ok := strings.CutPrefix(lines.Text(), "oddci-coordinator listening on "); ok {
				addr = v
			} else if v, ok := strings.CutPrefix(lines.Text(), "controller key: "); ok {
				key = v
			}
		}
		if telemetry == "" || addr == "" || key == "" {
			t.Fatalf("coordinator printed no telemetry URL (%q), address (%q) or key (%q)\n%s", telemetry, addr, key, stderr.Bytes())
		}
		// The job waits for the node, so the coordinator is still up:
		// every endpoint its -metrics help names answers, on the port
		// that :0 bound, and the timeline already holds the wakeup that
		// staged the image.
		for path, want := range map[string]string{"/healthz": "ok", "/timeline": "wakeup", "/trace": "wakeup"} {
			resp, err := http.Get(telemetry + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
				t.Fatalf("GET %s = %d, want 200 naming %q:\n%s", path, resp.StatusCode, want, body)
			}
		}
		var node bytes.Buffer
		nodeCmd := exec.Command(filepath.Join(bin, "oddci-node"), "-addr", addr, "-timescale", "100", "-controller-key", key)
		nodeCmd.Stdout = &node
		if err := nodeCmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The node's heartbeats reach the coordinator's Controller while
		// the job runs: /metrics counts them.
		beats := regexp.MustCompile(`(?m)^oddci_controller_heartbeats_total ([0-9.e+]+)$`)
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			resp, err := http.Get(telemetry + "/metrics")
			if err != nil {
				t.Fatalf("GET /metrics before a heartbeat was counted: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			m := beats.FindSubmatch(body)
			if m == nil {
				t.Fatalf("/metrics carries no oddci_controller_heartbeats_total:\n%s", body)
			}
			if n, _ := strconv.ParseFloat(string(m[1]), 64); n > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no heartbeat reached the controller")
			}
		}
		if err := nodeCmd.Wait(); err != nil {
			t.Fatalf("oddci-node: %v\n%s", err, node.Bytes())
		}
		if !strings.Contains(node.String(), "(oddci-demo)") || !strings.Contains(node.String(), "4 tasks executed") {
			t.Fatalf("node output:\n%s", node.Bytes())
		}
		for lines.Scan() {
			rest += lines.Text() + "\n"
		}
		if err := coord.Wait(); err != nil {
			t.Fatalf("coordinator: %v\n%s", err, stderr.Bytes())
		}
		if !strings.Contains(rest, "job complete") || !strings.Contains(rest, " 4 results") {
			t.Fatalf("coordinator output after the node's run:\n%s", rest)
		}
	})

	t.Run("coordinator resumes from its state dir", func(t *testing.T) {
		coord := exec.Command(filepath.Join(bin, "oddci-coordinator"),
			"-listen", "127.0.0.1:0", "-state-dir", stateDir, "-timeout", "1m")
		stdout, err := coord.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			coord.Process.Kill()
			coord.Wait()
		}()
		// The first run created the instance at seq 1; this one recomposes
		// it under the next sequence before it listens.
		want := "recovered state from " + stateDir + ": resuming at wakeup seq 2"
		var out string
		for lines := bufio.NewScanner(stdout); lines.Scan(); {
			out += lines.Text() + "\n"
			if strings.HasPrefix(lines.Text(), "oddci-coordinator listening on ") {
				break
			}
		}
		if !strings.Contains(out, want) {
			t.Fatalf("second run on the state dir printed:\n%s\nwant a line %q", out, want)
		}
	})
}
