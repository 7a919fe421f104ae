package crc

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// The oracle is hash/crc64 itself, on a table built here rather than the
// package's own.
var ecma = crc64.MakeTable(crc64.ECMA)

// withKernel runs f on every path the host has: the kernel as probed,
// then without its wide prologue, then the table alone, so the paths
// every other host takes are tested on this one; failures name the path
// through mode(). The wide path's oracle runs only on a host with
// AVX-512 and VPCLMULQDQ.
func withKernel(f func()) {
	clmul, wide := useCLMUL, useVPCLMUL
	defer func() { useCLMUL, useVPCLMUL = clmul, wide }()
	f()
	if wide {
		useVPCLMUL = false
		f()
	}
	if clmul {
		useCLMUL = false
		f()
	}
}

func mode() string {
	switch {
	case !useCLMUL:
		return "table"
	case useVPCLMUL:
		return "wide"
	}
	return "128-bit"
}

// xPowRef is x^n mod P one bit at a time.
func xPowRef(n int) uint64 {
	r := uint64(1) << 63
	for ; n > 0; n-- {
		if r&1 != 0 {
			r = r>>1 ^ poly
		} else {
			r >>= 1
		}
	}
	return r
}

func TestDerivedConstants(t *testing.T) {
	for i, n := range []int{2048 + 64 - 1, 2048 - 1, 512 + 64 - 1, 512 - 1, 128 + 64 - 1, 128 - 1} {
		if got, want := foldK[i], xPowRef(n); got != want {
			t.Errorf("foldK[%d] = %016x, want x^%d mod P = %016x", i, got, n, want)
		}
	}
	for k := 0; k <= 16; k++ {
		if got, want := x2n[k], xPowRef(1<<k); got != want {
			t.Errorf("x2n[%d] = %016x, want x^(2^%d) mod P = %016x", k, got, k, want)
		}
	}
	for _, n := range []int64{0, 1, 2, 63, 64, 65, 575, 4097} {
		if got, want := xPow(n, 0), xPowRef(int(n)); got != want {
			t.Errorf("xPow(%d, 0) = %016x, want %016x", n, got, want)
		}
		if got, want := xPow(n, 3), xPowRef(int(8*n)); got != want {
			t.Errorf("xPow(%d, 3) = %016x, want x^%d mod P = %016x", n, got, 8*n, want)
		}
	}
}

// TestFoldEdges drives the assembly alone at its loop-entry edges: 64
// bytes take neither loop, 80 the 16-byte one once, 128 the 64-byte one
// once; the rest mix them. The wide prologue takes 256 bytes without its
// loop, 272 and 320 into the 16- and 64-byte loops, 512 through one step
// of its own; the large ones leave every loop a remainder.
func TestFoldEdges(t *testing.T) {
	if !useCLMUL {
		t.Skip("no PCLMULQDQ on this host")
	}
	kernels := []bool{false}
	if useVPCLMUL {
		kernels = append(kernels, true)
	}
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{64, 80, 128, 144, 192, 208, 256, 272, 320, 512, 4096 + 48, 1<<20 + 16} {
		p := make([]byte, n)
		rng.Read(p)
		for _, reg := range []uint64{0, ^uint64(0), rng.Uint64()} {
			want := crc64.Update(^reg, ecma, p)
			for _, wide := range kernels {
				var rem [16]byte
				foldCLMUL(reg, p, &foldK, &rem, wide)
				if got := crc64.Update(^uint64(0), ecma, rem[:]); got != want {
					t.Errorf("wide=%v: fold of %d bytes from register %016x: remainder reduces to %016x, want %016x", wide, n, reg, got, want)
				}
			}
		}
	}
}

// TestProbeMatchesHost holds the probes to the flags Linux reports, so a
// wrong CPUID leaf or bit, or a wrong XCR0 mask, fails here rather than
// faulting on a host; -v logs the paths this host's tests exercise.
func TestProbeMatchesHost(t *testing.T) {
	t.Logf("paths probed: wide=%v 128-bit=%v table=true", useVPCLMUL, useCLMUL)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("no /proc/cpuinfo flags to compare on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	if want := flags["pclmulqdq"]; useCLMUL != want {
		t.Errorf("useCLMUL = %v, /proc/cpuinfo pclmulqdq = %v", useCLMUL, want)
	}
	if want := flags["avx512f"] && flags["vpclmulqdq"]; useVPCLMUL != want {
		t.Errorf("useVPCLMUL = %v, /proc/cpuinfo avx512f && vpclmulqdq = %v", useVPCLMUL, want)
	}
}

// check compares every entry point on p from register crc with
// hash/crc64, on every path, and each kernel also below the crossover
// Update applies.
func check(t *testing.T, what string, crc uint64, p []byte) {
	t.Helper()
	want := crc64.Update(crc, ecma, p)
	withKernel(func() {
		if got := Update(crc, p); got != want {
			t.Fatalf("%s, %s: Update(%016x, %d bytes) = %016x, hash/crc64 %016x", mode(), what, crc, len(p), got, want)
		}
		if crc == 0 && Checksum(p) != want {
			t.Fatalf("%s, %s: Checksum(%d bytes) = %016x, hash/crc64 %016x", mode(), what, len(p), Checksum(p), want)
		}
	})
	for _, wide := range []bool{false, true} {
		if useCLMUL && len(p) >= 64 && (!wide || useVPCLMUL && len(p) >= 256) {
			if got := updateCLMUL(crc, p, wide); got != want {
				t.Fatalf("%s: updateCLMUL(%016x, %d bytes, wide=%v) = %016x, hash/crc64 %016x", what, crc, len(p), wide, got, want)
			}
		}
	}
}

func TestMatchesHashCRC64(t *testing.T) {
	const big = 16 << 20
	rng := rand.New(rand.NewSource(64))
	random := make([]byte, big+1+16)
	rng.Read(random)
	ones := make([]byte, 4096+16)
	for i := range ones {
		ones[i] = 0xFF
	}
	zeros := make([]byte, 4096+16)
	reg := func(i int) uint64 { // a third of the cases start from nothing
		if i%3 == 0 {
			return 0
		}
		return rng.Uint64()
	}
	// Every length, at every alignment while the lengths are short (the
	// loads are unaligned ones whatever the address), then at one,
	// rotating.
	for n := 0; n <= 4096; n++ {
		for skip := 0; skip <= 16; skip++ {
			if n <= 1024 || skip == n%17 {
				check(t, fmt.Sprintf("random, skip %d", skip), reg(n+skip), random[skip:skip+n])
			}
		}
		skip := n % 17
		check(t, fmt.Sprintf("zeros, skip %d", skip), reg(n), zeros[skip:skip+n])
		check(t, fmt.Sprintf("ones, skip %d", skip), reg(n), ones[skip:skip+n])
	}
	// 2^k and 2^k±1: every alignment while that is cheap, then one per
	// length, rotating so that all seventeen recur.
	for k, i := 13, 0; 1<<k <= big; k++ {
		for n := 1<<k - 1; n <= 1<<k+1; n, i = n+1, i+1 {
			for skip := 0; skip <= 16; skip++ {
				if k <= 16 || skip == i%17 {
					check(t, fmt.Sprintf("random, skip %d", skip), reg(i+skip), random[skip:skip+n])
				}
			}
		}
	}
}

func TestUpdateAcrossSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	small := make([]byte, 300)
	large := make([]byte, 3<<20+7)
	rng.Read(small)
	rng.Read(large)
	withKernel(func() {
		for _, init := range []uint64{0, rng.Uint64()} {
			want := crc64.Update(init, ecma, small)
			for cut := 0; cut <= len(small); cut++ {
				if got := Update(Update(init, small[:cut]), small[cut:]); got != want {
					t.Fatalf("%s: 300 bytes from %016x split at %d: %016x, want %016x", mode(), init, cut, got, want)
				}
			}
			want = crc64.Update(init, ecma, large)
			for i := 0; i < 8; i++ {
				a := rng.Intn(len(large) + 1)
				b := a + rng.Intn(len(large)+1-a)
				if got := Update(Update(Update(init, large[:a]), large[a:b]), large[b:]); got != want {
					t.Fatalf("%s: %d bytes from %016x split at %d and %d: %016x, want %016x", mode(), len(large), init, a, b, got, want)
				}
			}
		}
	})
}

// FuzzChecksum holds kernel ≡ table ≡ hash/crc64 on data[skip:], whole
// and split, from a register derived from the input.
func FuzzChecksum(f *testing.F) {
	rng := rand.New(rand.NewSource(66))
	for _, n := range []int{0, 1, 15, 63, 64, 65, 127, 128, 129, 300, 5000} {
		p := make([]byte, n)
		rng.Read(p)
		f.Add(p, uint16(n/2), uint8(n))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16, skip uint8) {
		p := data[min(int(skip%17), len(data)):]
		cut := int(split) % (len(p) + 1)
		init := uint64(split)<<48 ^ uint64(skip)*0x9E3779B97F4A7C15&^1 // 0 for the zero seed
		want := crc64.Update(init, ecma, p)
		check(t, "whole", init, p)
		withKernel(func() {
			if got := Update(Update(init, p[:cut]), p[cut:]); got != want {
				t.Fatalf("%s: %d bytes split at %d: %016x, want %016x", mode(), len(p), cut, got, want)
			}
		})
	})
}

// BenchmarkChecksum sets the kernel, without and with its wide prologue,
// beside the table loop it replaced: at the crossovers' scale, a piece
// header's, and the hot workloads' and a dense state's piece sizes;
// `make test` runs it once.
func BenchmarkChecksum(b *testing.B) {
	type path struct {
		name string
		min  int
		f    func(uint64, []byte) uint64
	}
	paths := []path{{"table", 0, func(crc uint64, p []byte) uint64 { return crc64.Update(crc, table, p) }}}
	if useCLMUL {
		paths = append(paths, path{"kernel", 64, func(crc uint64, p []byte) uint64 { return updateCLMUL(crc, p, false) }})
	}
	if useVPCLMUL {
		paths = append(paths, path{"wide", 256, func(crc uint64, p []byte) uint64 { return updateCLMUL(crc, p, true) }})
	}
	for _, n := range []int{64, 128, 256, 384, 512, 4 << 10, 32 << 10, 1 << 20} {
		p := make([]byte, n)
		rand.New(rand.NewSource(67)).Read(p)
		for _, path := range paths {
			if n < path.min {
				continue
			}
			b.Run(fmt.Sprintf("%s/%d", path.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for b.Loop() {
					sinkCRC = path.f(sinkCRC, p)
				}
			})
		}
	}
}
