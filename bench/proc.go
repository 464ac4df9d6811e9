package bench

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a reading of the process's own resource counters;
// phases are measured as the difference of two.
type procSample struct {
	at         time.Time
	cpu        time.Duration // rusage user+sys
	wchar      int64         // bytes passed to write-like syscalls (/proc/self/io)
	allocBytes uint64
	allocs     uint64
	gcCPU      float64 // seconds
	maxRSSKB   int64
}

func sampleProc() procSample {
	s := procSample{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSSKB = ru.Maxrss
	}
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "wchar: "); ok {
				s.wchar, _ = strconv.ParseInt(v, 10, 64)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes, s.allocs = ms.TotalAlloc, ms.Mallocs
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	return s
}

// diskUsage sums the sizes of the regular files under root, counting a
// hard-linked file (checkpoint generations share segments) once. Files
// that vanish mid-walk — the stores are live — are skipped.
func diskUsage(root string) int64 {
	var total int64
	seen := map[uint64]bool{}
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			if seen[st.Ino] {
				return nil
			}
			seen[st.Ino] = true
		}
		total += info.Size()
		return nil
	})
	return total
}

// Host is the provenance recorded in every output file.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GODEBUG    string `json:"godebug"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Dirty      bool   `json:"git_dirty"`
	FSType     string `json:"state_fs_type"`
	Kernel     string `json:"kernel"`
}

// hostInfo describes the machine and build; stateDir must exist.
func hostInfo(stateDir string) Host {
	h := Host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: os.Getenv("GOGC"), GODEBUG: os.Getenv("GODEBUG"), GoVersion: runtime.Version(),
		Commit: "unknown", FSType: "unknown", Kernel: "unknown",
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		h.Dirty = err != nil || len(bytes.TrimSpace(st)) > 0
	}
	var sfs syscall.Statfs_t
	if err := syscall.Statfs(stateDir, &sfs); err == nil {
		h.FSType = fsTypeName(int64(sfs.Type))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

func fsTypeName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	default:
		return "0x" + strconv.FormatInt(magic, 16)
	}
}
