package engine

import "testing"

func TestWorkersDefault(t *testing.T) {
	if w := New(0).workers; w < 1 {
		t.Errorf("New(0).workers = %d", w)
	}
	if w := New(3).workers; w != 3 {
		t.Errorf("New(3).workers = %d", w)
	}
}
