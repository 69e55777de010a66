package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wlreviver"
)

// paperBin is the CLI under test, built once by TestMain so the
// end-to-end tests exercise the real binary boundary (flags, exit
// codes, file I/O) rather than in-process calls.
var paperBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "paperbin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	paperBin = filepath.Join(dir, "paper")
	if out, err := exec.Command("go", "build", "-o", paperBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building paper: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// paper runs the built binary and returns its stdout and exit code.
func paper(t *testing.T, args ...string) (stdout string, exitCode int) {
	t.Helper()
	cmd := exec.Command(paperBin, args...)
	out, err := cmd.Output()
	if err != nil {
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("paper %v: %v", args, err)
		}
		t.Logf("paper %v stderr: %s", args, exitErr.Stderr)
		return string(out), exitErr.ExitCode()
	}
	return string(out), 0
}

// goldenOutputs pins, per registered experiment, the SHA-256 of the
// byte-exact tiny-scale stdout and of its -metrics JSON. The simulator
// guarantees both are pure functions of (scale, seed): any commit that
// shifts one must either fix a correctness bug or consciously re-pin the
// hash (and explain the result change in the commit). Regenerate a row
// with:
//
//	go run ./cmd/paper -scale tiny -exp NAME -workers 1 -timing=false -metrics m.json | sha256sum
//	sha256sum m.json
var goldenOutputs = map[string]struct{ stdout, metrics string }{
	"table1":   {"0ef1ea466b8933621b57ef1f20998593322c0106c8696587e602a06efa5131c1", "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356"},
	"fig5":     {"bef06fcedd66d63fc77900a6a7cffd8fed23821b95762ab58569418a7c118df1", "d0d28add6a45438535d5ab37419b4beb4b93858a7cd1c775316310783b41866a"},
	"fig6":     {"dd6c22e7820fc46675cd9012f3ed8cd99f4349967d77e51c8b520df2eaf1bdf2", "2579cea85338be9f9833fe58b986b7cff57e31340f31c76edb16489ade7fa392"},
	"fig7":     {"1070d0f78ee72d4f634acbc6388523945d0b0a2197e6110299cfa68ce0e4ddd9", "975ca22406d4131cee1528afcdb29c6d69bd3f84700aa0af5e8ed24c0e07468b"},
	"fig8":     {"3b3b9d74f3e41e481eef0dad0f0e6e1a86a3094541be2bfaa34b6ae554e43f66", "e1474bc51b4734de2245d95bc4b19975143c187d916eeab3256c9c49e277a399"},
	"table2":   {"86bae48d495b0087e689a216146d01e1faf6902732269177bc1d8e50e39d0511", "77475c45cd9fbf330c33ef10d88b0b4e371f6c875a2a5b666bfd0d42e339a9db"},
	"wolfram":  {"e19338e9db2ba544ba1b8beafdcaaf7aaf8fd3cf7b4a06acdd44139b7a97094a", "5aeeb30ea3233e0c0d98c6450e93e43ab3b26088d1c41c18526dd60a606cea86"},
	"softwear": {"7d6d7debd594429720806f7fe65f487ab672108edf0b8bd162070b9e793e680b", "9c2ce8cfc24366e482e4830c19171a3514ddcd0117d3cfc7b997750a75b18899"},
	"attacks":  {"12903ae92635056786bfb0ab848fabd0b74c484507380163e07c7690fc769b3b", "f088d7430c0660e6a1983b22781fcaa23807429f8868c758901e40ccc605ed69"},
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestGoldenOutputs is the behaviour contract: every registered
// experiment's tiny stdout and -metrics JSON must match its pinned hash,
// and a newly registered experiment fails here until it is pinned.
func TestGoldenOutputs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range wlreviver.ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			want, ok := goldenOutputs[name]
			if !ok {
				t.Fatalf("experiment %q has no pinned golden hashes", name)
			}
			metrics := filepath.Join(dir, name+".json")
			out, code := paper(t, "-scale", "tiny", "-exp", name, "-workers", "1", "-timing=false", "-metrics", metrics)
			if code != 0 {
				t.Fatalf("exit code %d", code)
			}
			if got := sha256Hex([]byte(out)); got != want.stdout {
				t.Errorf("tiny %s stdout hash changed:\n got %s\nwant %s\noutput:\n%s", name, got, want.stdout, out)
			}
			data, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(data); got != want.metrics {
				t.Errorf("tiny %s -metrics JSON hash changed:\n got %s\nwant %s", name, got, want.metrics)
			}
		})
	}
}

// TestUsageListsExperiments keeps the package doc's -exp list in step
// with the experiment registry (the -usage text is built from it).
func TestUsageListsExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := "[-exp " + strings.Join(append([]string{"all"}, wlreviver.ExperimentNames()...), "|") + "]"
	if !strings.Contains(string(src), want) {
		t.Errorf("package doc does not list the registered experiments as %s", want)
	}
}

// TestShardedCLIByteIdentity is the binary-level face of the sharding
// contract: with a fixed semantic grid (-shard-grid 4), the execution
// pool width (-shards) must leave stdout and the -metrics JSON byte for
// byte unchanged. The banner is included deliberately — it names the
// grid but never the pool width.
func TestShardedCLIByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sharding differential is slow; run without -short")
	}
	dir := t.TempDir()
	var wantOut, wantJSON string
	for _, shards := range []string{"1", "7"} {
		metrics := filepath.Join(dir, "metrics-"+shards+".json")
		out, code := paper(t, "-scale", "tiny", "-exp", "fig8", "-workers", "1",
			"-shard-grid", "4", "-shards", shards, "-timing=false", "-metrics", metrics)
		if code != 0 {
			t.Fatalf("-shards %s exit code %d", shards, code)
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		if shards == "1" {
			wantOut, wantJSON = out, string(data)
			continue
		}
		if out != wantOut {
			t.Errorf("-shards %s stdout differs from -shards 1", shards)
		}
		if string(data) != wantJSON {
			t.Errorf("-shards %s -metrics JSON differs from -shards 1", shards)
		}
	}
}

// TestCrashResumeCLI is the binary-level differential: a run killed by
// -crash-after (exit code 3) and resumed with -resume must reproduce
// the uninterrupted run's stdout and -metrics JSON byte for byte.
func TestCrashResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash/resume differential is slow; run without -short")
	}
	dir := t.TempDir()
	baseMetrics := filepath.Join(dir, "base-metrics.json")
	base, code := paper(t, "-scale", "tiny", "-exp", "fig8", "-workers", "2",
		"-timing=false", "-metrics", baseMetrics)
	if code != 0 {
		t.Fatalf("baseline exit code %d", code)
	}

	// The crashed attempt must use the same flags as the resume —
	// -metrics attaches the observer whose counters the checkpoint
	// carries across the crash.
	ckDir := filepath.Join(dir, "ck")
	_, code = paper(t, "-scale", "tiny", "-exp", "fig8", "-workers", "2",
		"-timing=false", "-metrics", filepath.Join(dir, "crashed-metrics.json"),
		"-checkpoint-dir", ckDir, "-checkpoint-every", "100000",
		"-crash-after", "300000")
	if code != 3 {
		t.Fatalf("crashed run exited %d, want 3", code)
	}

	resumeMetrics := filepath.Join(dir, "resume-metrics.json")
	resumed, code := paper(t, "-scale", "tiny", "-exp", "fig8", "-workers", "2",
		"-timing=false", "-resume", ckDir, "-metrics", resumeMetrics)
	if code != 0 {
		t.Fatalf("resumed exit code %d", code)
	}
	if resumed != base {
		t.Error("resumed stdout differs from uninterrupted run")
	}
	baseJSON, err := os.ReadFile(baseMetrics)
	if err != nil {
		t.Fatal(err)
	}
	resumeJSON, err := os.ReadFile(resumeMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if string(baseJSON) != string(resumeJSON) {
		t.Error("resumed -metrics JSON differs from uninterrupted run")
	}
}
