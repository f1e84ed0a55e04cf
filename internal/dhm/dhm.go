// Package dhm implements the distributed hashmap HFetch keeps its
// segment statistics and segment-to-tier mappings in (the paper uses
// HCL, the Hermes Container Library [43]). It provides:
//
//   - O(1) concurrent insertion and querying via lock-striped shards;
//   - node-level partitioning: every key has a single owner node chosen
//     by highest-random-weight (rendezvous) hashing, so updates are
//     visible cluster-wide without a global synchronization barrier;
//   - atomic read-modify-write through named, pre-registered operations
//     (closures cannot cross the wire, so mutators are registered on
//     every node and invoked by name at the owner — the same server-side
//     operation model HCL uses);
//   - optional write-ahead logging for fault tolerance across
//     power-downs (see wal.go).
//
// Values are arbitrary Go values on the owner; crossing the wire they
// are gob-encoded, so remote-capable maps must register their concrete
// value types with encoding/gob.
package dhm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hfetch/internal/comm"
)

// OpFunc is a named mutator: it receives the current value (nil if the
// key is absent) and an opaque argument, and returns the new value.
// Returning nil deletes the key.
type OpFunc func(cur any, arg []byte) any

// Dialer abstracts how the map reaches other nodes.
type Dialer interface {
	Dial(node string) comm.Peer
}

// Config configures a Map instance.
type Config struct {
	// Name namespaces the map's message types and WAL records.
	Name string
	// Self is this node's name; Nodes is the full member list. An empty
	// Nodes list means a single-node map.
	Self  string
	Nodes []string
	// Shards is the number of local lock stripes (default 64).
	Shards int
	// Dialer reaches remote owners; may be nil for single-node maps.
	Dialer Dialer
	// WAL, when non-nil, records local mutations for recovery.
	WAL *WAL
}

// Map is one distributed hashmap instance.
type Map struct {
	cfg Config
	// members is the current membership (cfg.Nodes only seeds it).
	// Rebalance publishes a fresh slice; Owner lookups load it without a
	// lock, so every Get and Apply skips a map-wide read lock.
	members atomic.Pointer[[]string]
	shards  []shard

	opMu sync.RWMutex
	ops  map[string]OpFunc

	peerMu sync.Mutex
	peers  map[string]comm.Peer
}

type shard struct {
	mu sync.RWMutex
	m  map[string]any
}

// New creates a Map and, when mux is non-nil, registers its remote
// handlers so other nodes can reach this one's shards.
func New(cfg Config, mux *comm.Mux) *Map {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	m := &Map{
		cfg:   cfg,
		ops:   make(map[string]OpFunc),
		peers: make(map[string]comm.Peer),
	}
	m.setMembers(cfg.Nodes)
	m.shards = make([]shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i].m = make(map[string]any)
	}
	if mux != nil {
		m.registerHandlers(mux)
	}
	return m
}

// RegisterOp installs a named mutator. Every node of the map must
// register the same ops before use.
func (m *Map) RegisterOp(name string, fn OpFunc) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	m.ops[name] = fn
}

// Owner returns the owner node for key; the empty string means "self"
// (single-node map).
func (m *Map) Owner(key string) string { return ownerOf(m, key) }

// ownerOf is Owner over either key representation, so the []byte
// lookups hash in place without converting. A map of zero or one
// members needs no hashing at all.
func ownerOf[K string | []byte](m *Map, key K) string {
	nodes := *m.members.Load()
	switch len(nodes) {
	case 0:
		return m.cfg.Self
	case 1:
		return nodes[0]
	}
	h := fnv(key)
	best := ""
	var bestW uint64
	for _, n := range nodes {
		w := hrw(h, n)
		if best == "" || w > bestW || (w == bestW && n < best) {
			best, bestW = n, w
		}
	}
	return best
}

func (m *Map) setMembers(nodes []string) {
	cp := append([]string(nil), nodes...)
	m.members.Store(&cp)
}

func local[K string | []byte](m *Map, key K) bool {
	o := ownerOf(m, key)
	return o == "" || o == m.cfg.Self
}

func shardOf[K string | []byte](m *Map, key K) *shard {
	return &m.shards[int(fnv(key)%uint64(len(m.shards)))]
}

// Get returns the value for key and whether it exists.
func (m *Map) Get(key string) (any, bool, error) {
	if local(m, key) {
		s := shardOf(m, key)
		s.mu.RLock()
		v, ok := s.m[key]
		s.mu.RUnlock()
		return v, ok, nil
	}
	return m.remoteGet(key)
}

// GetBytes is Get keyed by the bytes of a key, for callers that build
// keys in a stack buffer: a locally owned key is looked up without
// converting it to a string, so the lookup does not allocate. key is
// not retained.
func (m *Map) GetBytes(key []byte) (any, bool, error) {
	if local(m, key) {
		s := shardOf(m, key)
		s.mu.RLock()
		// Not generic over the key type: only a concrete []byte index
		// gets the compiler's no-copy string(key) map lookup.
		v, ok := s.m[string(key)]
		s.mu.RUnlock()
		return v, ok, nil
	}
	return m.remoteGet(string(key))
}

// Put stores val under key.
func (m *Map) Put(key string, val any) error {
	if local(m, key) {
		m.localPut(key, val, true)
		return nil
	}
	return m.remotePut(key, val)
}

func (m *Map) localPut(key string, val any, logIt bool) {
	s := shardOf(m, key)
	s.mu.Lock()
	s.m[key] = val
	s.mu.Unlock()
	if logIt && m.cfg.WAL != nil {
		m.cfg.WAL.logPut(m.cfg.Name, key, val)
	}
}

// Delete removes key.
func (m *Map) Delete(key string) error {
	if local(m, key) {
		m.localDelete(key, true)
		return nil
	}
	return m.remoteDelete(key)
}

func (m *Map) localDelete(key string, logIt bool) {
	s := shardOf(m, key)
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	if logIt && m.cfg.WAL != nil {
		m.cfg.WAL.logDelete(m.cfg.Name, key)
	}
}

// Apply atomically applies the named op to key at its owner and returns
// the new value.
func (m *Map) Apply(key, op string, arg []byte) (any, error) {
	if local(m, key) {
		return m.localApply(key, op, arg)
	}
	return m.remoteApply(key, op, arg)
}

func (m *Map) localApply(key, op string, arg []byte) (any, error) {
	m.opMu.RLock()
	fn := m.ops[op]
	m.opMu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("dhm: unknown op %q", op)
	}
	s := shardOf(m, key)
	s.mu.Lock()
	cur := s.m[key]
	next := fn(cur, arg)
	if next == nil {
		delete(s.m, key)
	} else {
		s.m[key] = next
	}
	s.mu.Unlock()
	if m.cfg.WAL != nil {
		if next == nil {
			m.cfg.WAL.logDelete(m.cfg.Name, key)
		} else {
			m.cfg.WAL.logPut(m.cfg.Name, key, next)
		}
	}
	return next, nil
}

// LocalKeys returns the keys whose shards live on this node.
func (m *Map) LocalKeys() []string {
	var out []string
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k := range s.m {
			out = append(out, k)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// LocalLen returns the number of locally stored keys.
func (m *Map) LocalLen() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every local key/value until fn returns false. The
// shard lock is held during fn; fn must not call back into the map.
func (m *Map) Range(fn func(key string, val any) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// ---- remote plumbing ----

type rpcReq struct {
	Key string
	Op  string
	Arg []byte
	Val []byte // gob-encoded value for puts
}

type rpcResp struct {
	Found bool
	Val   []byte
}

func (m *Map) msgType(op string) string { return "dhm." + m.cfg.Name + "." + op }

func (m *Map) peer(node string) (comm.Peer, error) {
	if m.cfg.Dialer == nil {
		return nil, fmt.Errorf("dhm: no dialer configured for remote owner %q", node)
	}
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	if p, ok := m.peers[node]; ok {
		return p, nil
	}
	p := m.cfg.Dialer.Dial(node)
	m.peers[node] = p
	return p, nil
}

func encodeVal(v any) ([]byte, error) {
	var buf bytes.Buffer
	// Wrap in an interface holder so gob records the concrete type.
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("dhm: encode value: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeVal(b []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("dhm: decode value: %w", err)
	}
	return v, nil
}

func (m *Map) remoteGet(key string) (any, bool, error) {
	p, err := m.peer(m.Owner(key))
	if err != nil {
		return nil, false, err
	}
	req, _ := encodeReq(rpcReq{Key: key})
	raw, err := p.Request(m.msgType("get"), req)
	if err != nil {
		return nil, false, err
	}
	resp, err := decodeResp(raw)
	if err != nil {
		return nil, false, err
	}
	if !resp.Found {
		return nil, false, nil
	}
	v, err := decodeVal(resp.Val)
	return v, err == nil, err
}

func (m *Map) remotePut(key string, val any) error {
	p, err := m.peer(m.Owner(key))
	if err != nil {
		return err
	}
	vb, err := encodeVal(val)
	if err != nil {
		return err
	}
	req, _ := encodeReq(rpcReq{Key: key, Val: vb})
	_, err = p.Request(m.msgType("put"), req)
	return err
}

func (m *Map) remoteDelete(key string) error {
	p, err := m.peer(m.Owner(key))
	if err != nil {
		return err
	}
	req, _ := encodeReq(rpcReq{Key: key})
	_, err = p.Request(m.msgType("del"), req)
	return err
}

func (m *Map) remoteApply(key, op string, arg []byte) (any, error) {
	p, err := m.peer(m.Owner(key))
	if err != nil {
		return nil, err
	}
	req, _ := encodeReq(rpcReq{Key: key, Op: op, Arg: arg})
	raw, err := p.Request(m.msgType("apply"), req)
	if err != nil {
		return nil, err
	}
	resp, err := decodeResp(raw)
	if err != nil {
		return nil, err
	}
	if !resp.Found {
		return nil, nil
	}
	return decodeVal(resp.Val)
}

func encodeReq(r rpcReq) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

func decodeReq(b []byte) (rpcReq, error) {
	var r rpcReq
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r)
	return r, err
}

func encodeResp(r rpcResp) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

func decodeResp(b []byte) (rpcResp, error) {
	var r rpcResp
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r)
	return r, err
}

func (m *Map) registerHandlers(mux *comm.Mux) {
	mux.Register(m.msgType("get"), func(raw []byte) ([]byte, error) {
		req, err := decodeReq(raw)
		if err != nil {
			return nil, err
		}
		s := shardOf(m, req.Key)
		s.mu.RLock()
		v, ok := s.m[req.Key]
		s.mu.RUnlock()
		if !ok {
			return encodeResp(rpcResp{})
		}
		vb, err := encodeVal(v)
		if err != nil {
			return nil, err
		}
		return encodeResp(rpcResp{Found: true, Val: vb})
	})
	mux.Register(m.msgType("put"), func(raw []byte) ([]byte, error) {
		req, err := decodeReq(raw)
		if err != nil {
			return nil, err
		}
		v, err := decodeVal(req.Val)
		if err != nil {
			return nil, err
		}
		m.localPut(req.Key, v, true)
		return encodeResp(rpcResp{Found: true})
	})
	mux.Register(m.msgType("del"), func(raw []byte) ([]byte, error) {
		req, err := decodeReq(raw)
		if err != nil {
			return nil, err
		}
		m.localDelete(req.Key, true)
		return encodeResp(rpcResp{})
	})
	mux.Register(m.msgType("apply"), func(raw []byte) ([]byte, error) {
		req, err := decodeReq(raw)
		if err != nil {
			return nil, err
		}
		next, err := m.localApply(req.Key, req.Op, req.Arg)
		if err != nil {
			return nil, err
		}
		if next == nil {
			return encodeResp(rpcResp{})
		}
		vb, err := encodeVal(next)
		if err != nil {
			return nil, err
		}
		return encodeResp(rpcResp{Found: true, Val: vb})
	})
}

// ---- hashing ----

func fnv[K string | []byte](s K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// hrw computes the rendezvous weight of (key, node) from the key's hash
// keyHash = fnv(key). The two hashes are combined through a strong
// finalizer so short node names still produce well-distributed weights.
func hrw(keyHash uint64, node string) uint64 {
	z := keyHash ^ (fnv(node) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
