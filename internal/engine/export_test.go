package engine

import "sync"

// RecordComputations logs the key of every memo computation any engine
// starts from now until stop is called; keys returns the log so far.
// Computations may run concurrently.
func RecordComputations() (keys func() []Key, stop func()) {
	var mu sync.Mutex
	var log []Key
	computed = func(k Key) {
		mu.Lock()
		defer mu.Unlock()
		log = append(log, k)
	}
	keys = func() []Key {
		mu.Lock()
		defer mu.Unlock()
		return append([]Key(nil), log...)
	}
	return keys, func() { computed = nil }
}
