package core

import (
	"testing"
	"time"
)

func TestWait(t *testing.T) {
	time.Sleep(time.Millisecond)
	Wait(func() bool { return true })
}
