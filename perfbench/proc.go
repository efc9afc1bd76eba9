package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the process-wide counters the per-op metrics
// are differences of.
type procSample struct {
	syscalls   int64 // syscr + syscw from /proc/self/io
	writeBytes int64 // write_bytes from /proc/self/io: bytes sent to storage
	cpu        time.Duration
	alloc      uint64
	mallocs    uint64
}

func sampleProc() procSample {
	var s procSample
	if f, err := os.Open("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), ": ")
			if !ok {
				continue
			}
			v, _ := strconv.ParseInt(val, 10, 64)
			switch name {
			case "syscr", "syscw":
				s.syscalls += v
			case "write_bytes":
				s.writeBytes = v
			}
		}
		f.Close()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.mallocs = ms.TotalAlloc, ms.Mallocs
	return s
}

// liveHeap forces collections and returns the bytes of heap objects left
// live. HeapAlloc right after a full GC counts exactly the reachable
// objects, where HeapInuse would add page-granular fragmentation noise; the
// second GC frees what sync.Pool victim caches (pooled writers, flate
// state) kept alive through the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
