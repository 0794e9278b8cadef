package main

import (
	"errors"
	"syscall"
)

// image is a write-once input buffer mapped outside the Go heap. The
// benchmark's captures are tens of megabytes; keeping them off the heap
// keeps them out of the GC's heap goal, so heap_peak_mb measures the
// program rather than the benchmark's own input.
type image struct {
	buf []byte
	n   int
}

var errImageFull = errors.New("perfbench: input image capacity exceeded")

// mapAnon maps n bytes of anonymous memory outside the Go heap. Pages
// are committed only as they are written. Release with syscall.Munmap.
func mapAnon(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// newImage maps an image of capacity bytes.
func newImage(capacity int) (*image, error) {
	buf, err := mapAnon(capacity)
	if err != nil {
		return nil, err
	}
	return &image{buf: buf}, nil
}

// Write appends p to the image.
func (im *image) Write(p []byte) (int, error) {
	if im.n+len(p) > len(im.buf) {
		return 0, errImageFull
	}
	im.n += copy(im.buf[im.n:], p)
	return len(p), nil
}

// Bytes returns the written part of the image.
func (im *image) Bytes() []byte { return im.buf[:im.n] }

// release unmaps the image; Bytes must not be used afterwards.
func (im *image) release() {
	if im.buf != nil {
		_ = syscall.Munmap(im.buf)
		im.buf, im.n = nil, 0
	}
}
