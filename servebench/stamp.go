package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies what a run measured and where.
type stamp struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Commit      string `json:"commit"`
	SourceSHA   string `json:"source_sha256"` // over the module's .go files and go.mod
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	CPU         string `json:"cpu_model"`
	LUBMScale   int    `json:"lubm_scale"`
	Triples     int    `json:"triples"`
	Fsync       string `json:"fsync"`
	LocNonTest  int    `json:"loc_nontest"` // informational; not gated
	Connections int    `json:"client_connections"`
}

func newStamp(w *workload, seed int64, triples int) stamp {
	fsync := "none (in memory)"
	if w.name == "live-mixed" {
		fsync = "always"
	}
	sha, loc := sourceIdentity(".")
	return stamp{
		Workload: w.name, Seed: seed, Commit: gitCommit("."), SourceSHA: sha,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), LUBMScale: scale, Triples: triples, Fsync: fsync, LocNonTest: loc,
		Connections: clients,
	}
}

// benchDir is this benchmark's directory; it is not part of the program
// under measurement.
const benchDir = "servebench"

// sourceIdentity hashes the program's Go sources and go.mod under root and
// counts their non-test lines, skipping the benchmark and hidden or build
// directories.
func sourceIdentity(root string) (string, int) {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (d.Name() == benchDir || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	loc := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
		if strings.HasSuffix(f, ".go") && !strings.HasSuffix(f, "_test.go") {
			loc += strings.Count(string(b), "\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], loc
}

// gitCommit reads HEAD from root/.git without running git; a checkout
// without .git reports "unknown" (source_sha256 still identifies it).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[1] == name {
				return fields[0]
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
