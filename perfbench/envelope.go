package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envelope records what a result was measured on and with, so a number is
// never read without its host, revision and inputs.
type envelope struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Threads      int     `json:"threads"`
	CPU          string  `json:"cpu_model"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitRevision  string  `json:"git_revision"`
	GitDirty     bool    `json:"git_dirty"`
	SourceSHA256 string  `json:"source_sha256,omitempty"`
	ModelSHA256  string  `json:"model_sha256"`
}

func newEnvelope(root string, modelSum string) envelope {
	rev, dirty := gitState(root)
	env := envelope{
		Threads:     runtime.NumCPU(),
		CPU:         cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitRevision: rev,
		GitDirty:    dirty,
		ModelSHA256: modelSum,
	}
	if rev == "none" {
		env.SourceSHA256 = sourceSum(root)
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitState returns the checked-out revision and whether the tree differs
// from it, untracked files included: Go compiles a new .go file into the
// benchmark whether git tracks it or not. Outside a git work tree (an
// exported checkout) it returns "none"; sourceSum then identifies the code.
func gitState(root string) (string, bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none", false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", false
	}
	status, err := exec.CommandContext(ctx, "git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err != nil || len(strings.TrimSpace(string(status))) > 0
}

// sourceSum identifies code that is outside git: it hashes the module's Go
// sources, go.mod files and model, in path order, skipping hidden and build
// directories.
func sourceSum(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just stays out of the sum
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "model.json" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
