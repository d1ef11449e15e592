package a

import "testing"

func TestLen(t *testing.T) {
	if (T{n: 1}).Len() != 1 || Run(Options{Depth: 1}, Config{}) != 1 {
		t.Fatal("fixture arithmetic")
	}
}
