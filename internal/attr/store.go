package attr

import (
	"sort"
	"sync"
)

// Store is a concurrency-safe collection of ledgers keyed by run name,
// the publication point between attributed runs and the serve layer's
// /explain endpoint and per-site metrics. An empty store exports
// nothing, so a server whose runs never attribute pays no metric or
// encoding cost.
type Store struct {
	mu      sync.Mutex
	ledgers map[string]*Ledger
	order   []string // insertion order for stable listings
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{ledgers: map[string]*Ledger{}}
}

// Put publishes a ledger under the given run key, replacing any previous
// ledger with that key.
func (s *Store) Put(key string, l *Ledger) {
	if s == nil || l == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ledgers[key]; !ok {
		s.order = append(s.order, key)
	}
	s.ledgers[key] = l
}

// Get returns the ledger published under key, or nil.
func (s *Store) Get(key string) *Ledger {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledgers[key]
}

// Keys returns the published run keys in insertion order.
func (s *Store) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Len returns the number of published ledgers.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ledgers)
}

// SortedKeys returns the published run keys sorted lexically (for
// deterministic exports regardless of publication order).
func (s *Store) SortedKeys() []string {
	keys := s.Keys()
	sort.Strings(keys)
	return keys
}
