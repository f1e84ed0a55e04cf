package pfs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hfetch/internal/devsim"
)

func TestCreateStatRemove(t *testing.T) {
	fs := New(nil)
	if err := fs.Create("a", 1000); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("a")
	if err != nil || fi.Size != 1000 || fi.Version != 0 {
		t.Fatalf("Stat = %+v %v", fi, err)
	}
	fs.Remove("a")
	if _, err := fs.Stat("a"); err == nil {
		t.Fatal("Stat after Remove must fail")
	}
}

func TestCreateNegativeSize(t *testing.T) {
	fs := New(nil)
	if err := fs.Create("a", -1); err == nil {
		t.Fatal("negative size must error")
	}
}

func TestReadDeterministic(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 4096)
	b1 := make([]byte, 512)
	b2 := make([]byte, 512)
	if _, _, err := fs.ReadAt("a", 100, b1); err != nil {
		t.Fatal(err)
	}
	fs.ReadAt("a", 100, b2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-reads of same region must be identical")
	}
}

func TestReadOffsetIndependence(t *testing.T) {
	// Reading [0,200) then slicing [100,200) must equal reading at 100.
	fs := New(nil)
	fs.Create("a", 4096)
	whole := make([]byte, 200)
	part := make([]byte, 100)
	fs.ReadAt("a", 0, whole)
	fs.ReadAt("a", 100, part)
	if !bytes.Equal(whole[100:], part) {
		t.Fatal("content must be a pure function of absolute offset")
	}
}

func TestDifferentFilesDiffer(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 1024)
	fs.Create("b", 1024)
	ba := make([]byte, 256)
	bb := make([]byte, 256)
	fs.ReadAt("a", 0, ba)
	fs.ReadAt("b", 0, bb)
	if bytes.Equal(ba, bb) {
		t.Fatal("different files should have different contents")
	}
}

func TestShortReadAtEOF(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 100)
	p := make([]byte, 64)
	n, _, err := fs.ReadAt("a", 80, p)
	if err != nil || n != 20 {
		t.Fatalf("ReadAt near EOF = %d %v, want 20", n, err)
	}
	n, _, _ = fs.ReadAt("a", 200, p)
	if n != 0 {
		t.Fatalf("ReadAt past EOF = %d, want 0", n)
	}
}

func TestReadErrors(t *testing.T) {
	fs := New(nil)
	if _, _, err := fs.ReadAt("nope", 0, make([]byte, 1)); err == nil {
		t.Fatal("read of missing file must error")
	}
	fs.Create("a", 10)
	if _, _, err := fs.ReadAt("a", -1, make([]byte, 1)); err == nil {
		t.Fatal("negative offset must error")
	}
}

func TestWriteBumpsVersionAndChangesContent(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 1024)
	before := make([]byte, 128)
	after := make([]byte, 128)
	fs.ReadAt("a", 0, before)
	if _, err := fs.Write("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.Stat("a")
	if fi.Version != 1 {
		t.Fatalf("version = %d, want 1", fi.Version)
	}
	fs.ReadAt("a", 0, after)
	if bytes.Equal(before, after) {
		t.Fatal("content must change after a write (version mix)")
	}
}

func TestWriteExtendsFile(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 100)
	fs.Write("a", 150, 50)
	fi, _ := fs.Stat("a")
	if fi.Size != 200 {
		t.Fatalf("size after extending write = %d, want 200", fi.Size)
	}
}

func TestWriteMissingFile(t *testing.T) {
	fs := New(nil)
	if _, err := fs.Write("nope", 0, 1); err == nil {
		t.Fatal("write of missing file must error")
	}
}

func TestExpectedAtMatchesRead(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 512)
	p := make([]byte, 512)
	fs.ReadAt("a", 0, p)
	for _, off := range []int64{0, 1, 7, 8, 63, 511} {
		want, err := fs.ExpectedAt("a", off)
		if err != nil {
			t.Fatal(err)
		}
		if p[off] != want {
			t.Fatalf("ExpectedAt(%d) = %d, read %d", off, want, p[off])
		}
	}
}

func TestListNames(t *testing.T) {
	fs := New(nil)
	fs.Create("x", 1)
	fs.Create("y", 1)
	names := fs.List()
	if len(names) != 2 {
		t.Fatalf("List = %v, want 2 names", names)
	}
}

func TestDeviceCharged(t *testing.T) {
	dev := devsim.New(devsim.Profile{Name: "pfs", Latency: 5 * time.Millisecond}, 1)
	fs := New(dev)
	fs.Create("a", 1024)
	start := time.Now()
	_, cost, err := fs.ReadAt("a", 0, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if cost < 5*time.Millisecond {
		t.Fatalf("cost = %v, want >= 5ms", cost)
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("read returned after %v, device not charged", el)
	}
	ops, _, _ := dev.Stats()
	if ops != 1 {
		t.Fatalf("device ops = %d, want 1", ops)
	}
}

// Property: any read equals the byte-by-byte ExpectedAt oracle.
func TestReadMatchesOracle(t *testing.T) {
	fs := New(nil)
	fs.Create("f", 2048)
	f := func(offRaw, lnRaw uint16) bool {
		off := int64(offRaw % 2048)
		ln := int(lnRaw%128) + 1
		p := make([]byte, ln)
		n, _, err := fs.ReadAt("f", off, p)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want, _ := fs.ExpectedAt("f", off+int64(i))
			if p[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fillRef is the byte-at-a-time definition of file content that fill's
// word-wise stores must reproduce exactly.
func fillRef(p []byte, seed uint64, version int64, off int64) {
	base := seed ^ (uint64(version) * 0x9e3779b97f4a7c15)
	for i := range p {
		abs := uint64(off + int64(i))
		word := mix(base + (abs>>3)*0xbf58476d1ce4e5b9)
		p[i] = byte(word >> ((abs & 7) * 8))
	}
}

func TestFillMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		seed := rng.Uint64()
		version := rng.Int63n(1 << 20)
		off := rng.Int63n(1 << 30)
		n := rng.Intn(300)
		if trial%10 == 0 {
			n = rng.Intn(1 << 16)
		}
		got := make([]byte, n)
		want := make([]byte, n)
		fill(got, seed, version, off)
		fillRef(want, seed, version, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %#x version %d off %d len %d: word-wise fill differs from the byte reference", seed, version, off, n)
		}
	}
}

// TestConcurrentWriteReadSingleGeneration runs writers and readers of
// one file together: every read must return the bytes of exactly one
// generation, one the file held at some point during the read. Run with
// -race it also checks that ReadAt takes its view of the file under the
// lock Write updates it under.
func TestConcurrentWriteReadSingleGeneration(t *testing.T) {
	const size = 1 << 16
	fs := New(nil)
	fs.Create("f", size)
	seed := seedOf("f")
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := fs.Write("f", 0, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			p := make([]byte, 4096)
			ref := make([]byte, len(p))
			for i := 0; i < 500; i++ {
				off := rng.Int63n(size - int64(len(p)))
				before, _ := fs.Stat("f")
				if _, _, err := fs.ReadAt("f", off, p); err != nil {
					t.Error(err)
					return
				}
				after, _ := fs.Stat("f")
				match := false
				for v := before.Version; v <= after.Version && !match; v++ {
					fillRef(ref, seed, v, off)
					match = bytes.Equal(p, ref)
				}
				if !match {
					t.Errorf("read at %d matches no generation in [%d, %d]", off, before.Version, after.Version)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
