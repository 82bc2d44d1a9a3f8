package cache

import (
	"fmt"
	"testing"
)

func TestSlabClasses(t *testing.T) {
	c, _ := newTestCache(t, Options{MaxBytes: 16 << 20, MaxItemSize: 1 << 20})
	// Tiny items (cost ~70B -> class 128) and big items (cost ~4KiB+).
	for i := 0; i < 5; i++ {
		_ = setItem(c, fmt.Sprintf("small-%d", i), []byte("v"), 0, 0)
	}
	big := make([]byte, 4000)
	for i := 0; i < 3; i++ {
		_ = setItem(c, fmt.Sprintf("big-%d", i), big, 0, 0)
	}
	classes := c.SlabClasses()
	if len(classes) < 2 {
		t.Fatalf("classes = %d, want >= 2", len(classes))
	}
	var totalItems, totalBytes int64
	for i, sc := range classes {
		if i > 0 && sc.ChunkSize <= classes[i-1].ChunkSize {
			t.Error("classes not sorted ascending")
		}
		if sc.ChunkSize&(sc.ChunkSize-1) != 0 {
			t.Errorf("chunk size %d not a power of two", sc.ChunkSize)
		}
		totalItems += sc.Items
		totalBytes += sc.Bytes
	}
	if totalItems != 8 {
		t.Errorf("total items = %d", totalItems)
	}
	if totalBytes != c.Stats().Bytes {
		t.Errorf("class bytes %d != cache bytes %d", totalBytes, c.Stats().Bytes)
	}
}

func TestClassFor(t *testing.T) {
	tests := []struct {
		give int64
		want int64
	}{
		{1, 64}, {64, 64}, {65, 128}, {128, 128}, {129, 256}, {4096, 4096}, {4097, 8192},
	}
	for _, tt := range tests {
		if got := classFor(tt.give); got != tt.want {
			t.Errorf("classFor(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
}
