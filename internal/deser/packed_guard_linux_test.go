package deser

import (
	"bytes"
	"syscall"
	"testing"

	"dpurpc/internal/mt19937"
	"dpurpc/internal/wire"
)

// guardedPage maps two pages and revokes all access to the second. The
// returned slice is the first page; a read or write past its end faults.
func guardedPage(t *testing.T) []byte {
	t.Helper()
	ps := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[ps:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return mem[:ps:ps]
}

// TestPackedVarintsGuardPages decodes payloads of every length 0-300 that
// end exactly at an inaccessible page, into output whose capacity ends
// exactly at another, on every kernel this CPU supports and on the portable
// loop, entered at every start 0-63. Any read past src or store past
// cap(out) faults.
func TestPackedVarintsGuardPages(t *testing.T) {
	srcPage, outPage := guardedPage(t), guardedPage(t)
	ps := len(srcPage)
	rng := mt19937.New(mt19937.DefaultSeed)
	var tenByte, mixed []byte
	for len(tenByte) < 300 {
		tenByte = wire.AppendVarint(tenByte, uint64(-1-int64(rng.Uint32())))
		mixed = wire.AppendVarint(mixed, rng.Uint64()>>rng.Uint32n(64))
	}
	patterns := [][]byte{bytes.Repeat([]byte{0x01}, 300), bytes.Repeat([]byte{0xff}, 300), tenByte, mixed}
	kinds := []packedKind{{"bool", 1, false}, {"sint32", 4, true}, {"int64", 8, false}}
	kerns := supportedKernels(t)
	kerns = append(kerns[:len(kerns):len(kerns)], portable)
	for _, pat := range patterns {
		for n := 0; n <= 300; n++ {
			src := srcPage[ps-n:]
			copy(src, pat)
			for _, k := range kinds {
				for _, kern := range kerns {
					appendOn(kern, outPage[ps-n*int(k.w):ps-n*int(k.w)], src, k.w, k.zig)
				}
				for start := 0; start < 64 && start <= n; start++ {
					out := outPage[ps-(n-start)*int(k.w):]
					for _, kern := range kerns {
						if kern.decode != nil {
							kern.decode(out, 0, src, start, k.w, k.zig)
						}
					}
					decodeBlocksGo(out, 0, src, start, k.w, k.zig)
				}
			}
		}
	}
}
