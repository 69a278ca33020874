//go:build !unix

package main

import "errors"

var errPlatform = errors.New("bench: needs a unix platform (anonymous mmap, getrusage)")

// offHeap and cpuTime exist so the package builds everywhere; the
// benchmark itself only runs where platform_unix.go does.
func offHeap[T any](int) ([]T, func(), error) { return nil, nil, errPlatform }

func cpuTime() (int64, error) { return 0, errPlatform }
