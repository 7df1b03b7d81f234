package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/erpc"
)

// hostInfo is the host and program metadata recorded with every run.
func hostInfo(engine string) string {
	var u syscall.Utsname
	release := "unknown"
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		release = string(b)
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d kernel=%s go=%s os=%s/%s engine=%s gso_supported=%t",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), release, runtime.Version(),
		runtime.GOOS, runtime.GOARCH, engine, erpc.UDPGsoSupported())
}

// usage is a snapshot of process resource use.
type usage struct {
	at      time.Time
	cpuNs   int64 // user + system
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpuNs:   cpuNs(),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// cpuNs is the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// udpFloor measures a plain Go UDP ping-pong of 32-byte datagrams on
// loopback for d and returns the median round trip in microseconds and
// the number of round trips.
func udpFloor(d time.Duration) (float64, int, error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp", lo)
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := net.ListenUDP("udp", lo)
	if err != nil {
		return 0, 0, err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		buf := make([]byte, 64)
		for {
			n, from, err := b.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			if _, err := b.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	defer func() {
		b.Close()
		<-echoDone
	}()
	dst := b.LocalAddr().(*net.UDPAddr).AddrPort()
	msg, buf := make([]byte, smallMsg), make([]byte, 64)
	end := time.Now().Add(d)
	if err := a.SetReadDeadline(end.Add(time.Second)); err != nil {
		return 0, 0, err
	}
	var rtts []float64
	for time.Now().Before(end) {
		t0 := time.Now()
		if _, err := a.WriteToUDPAddrPort(msg, dst); err != nil {
			return 0, 0, err
		}
		if _, _, err := a.ReadFromUDPAddrPort(buf); err != nil {
			return 0, 0, err
		}
		rtts = append(rtts, us(float64(time.Since(t0))))
	}
	if len(rtts) == 0 {
		return 0, 0, fmt.Errorf("udp floor: no round trips")
	}
	sort.Float64s(rtts)
	return rtts[len(rtts)/2], len(rtts), nil
}
