package seg

// DefaultStreamLookahead is how many segments ahead of a detected
// sequential stream readahead hints reach when no lookahead is
// configured. Two covers a reader that is about to cross into the next
// segment without over-fetching short windowed readers (Montage's
// mDiffFit reads two-segment overlap windows).
const DefaultStreamLookahead = 2

// Stream is one reader's sequential-stream detector over one file: the
// state an agent file handle keeps for itself and the gateway keeps per
// (client, file). Two back-to-back reads within the window make a
// stream, and each read of a stream hints the next lookahead segments
// that have not been hinted yet, so every segment is hinted once per
// stream however many reads land in the segment before it. The zero
// value is a fresh detector; it is not safe for concurrent use.
type Stream struct {
	next   int64 // offset the stream is expected to continue at
	streak int   // consecutive in-window reads observed
	// hinted is the highest segment index hinted in this stream. Hints
	// always lie past the segment being read, so 0 means none yet.
	hinted int64
}

// Detected reports whether the last read advanced continued a stream.
func (s *Stream) Detected() bool { return s.streak >= 2 }

// Advance records a read of [off, off+length) from a file of size bytes
// and returns the segment indexes [first, last] to hint: the segments
// after the read's last byte, up to lookahead of them, not hinted
// before in this stream and clipped at EOF. first > last means nothing
// to hint (no stream yet, all already hinted, or at EOF). window is the
// byte tolerance between the end of one read and the start of the next;
// a jump beyond it starts a new stream and forgets its hints.
func (s *Stream) Advance(segr *Segmenter, off, length, size, window int64, lookahead int) (first, last int64) {
	gap := off - s.next
	if s.streak > 0 && gap >= -window && gap <= window {
		s.streak++
	} else {
		s.streak = 1
		s.hinted = 0
	}
	end := off + length
	s.next = end
	if s.streak < 2 || length <= 0 || end >= size {
		return 0, -1
	}
	cur := segr.IndexOf(end - 1)
	first = max(cur, s.hinted) + 1
	last = min(cur+int64(lookahead), segr.IndexOf(size-1))
	if first <= last {
		s.hinted = last
	}
	return first, last
}
