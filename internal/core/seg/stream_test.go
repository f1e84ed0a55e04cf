package seg

import "testing"

func TestStreamHintsAfterTwoReadsOnly(t *testing.T) {
	segr := NewSegmenter(100)
	var s Stream
	if first, last := s.Advance(segr, 0, 50, 1000, 100, 2); first <= last {
		t.Fatalf("first read hinted [%d, %d]", first, last)
	}
	if s.Detected() {
		t.Fatal("one read detected as a stream")
	}
	first, last := s.Advance(segr, 50, 50, 1000, 100, 2)
	if !s.Detected() || first != 1 || last != 2 {
		t.Fatalf("second read hinted [%d, %d] detected=%v, want [1, 2] true", first, last, s.Detected())
	}
}

// Reads that stay within one segment hint nothing new; crossing into
// the next segment hints only the one newly in reach.
func TestStreamDeduplicatesHints(t *testing.T) {
	segr := NewSegmenter(100)
	var s Stream
	var got []int64
	for off := int64(0); off < 400; off += 25 {
		first, last := s.Advance(segr, off, 25, 1000, 100, 2)
		for idx := first; idx <= last; idx++ {
			got = append(got, idx)
		}
	}
	want := []int64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("hinted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hinted %v, want %v", got, want)
		}
	}
}

func TestStreamClipsAtEOF(t *testing.T) {
	segr := NewSegmenter(100)
	var s Stream
	s.Advance(segr, 700, 100, 950, 100, 4)
	first, last := s.Advance(segr, 800, 100, 950, 100, 4)
	if first != 9 || last != 9 {
		t.Fatalf("hinted [%d, %d], want [9, 9]: segment 9 is the last", first, last)
	}
	if first, last := s.Advance(segr, 900, 50, 950, 100, 4); first <= last {
		t.Fatalf("read ending at EOF hinted [%d, %d]", first, last)
	}
}

// A jump past the window starts a new stream that hints again, even
// segments the old stream already hinted (a second pass over a file).
func TestStreamResetsOnJump(t *testing.T) {
	segr := NewSegmenter(100)
	var s Stream
	s.Advance(segr, 0, 100, 1000, 100, 2)
	s.Advance(segr, 100, 100, 1000, 100, 2) // hints 2, 3
	if first, last := s.Advance(segr, 700, 100, 1000, 100, 2); first <= last || s.Detected() {
		t.Fatalf("jump hinted [%d, %d] detected=%v", first, last, s.Detected())
	}
	s.Advance(segr, 0, 100, 1000, 100, 2)
	first, last := s.Advance(segr, 100, 100, 1000, 100, 2)
	if first != 2 || last != 3 {
		t.Fatalf("second pass hinted [%d, %d], want [2, 3]", first, last)
	}
}
