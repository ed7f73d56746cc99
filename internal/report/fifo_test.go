//go:build unix

package report

import (
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestLoadDirRefusesFIFO puts a FIFO with no writer where a report
// belongs. Opening it for reading would wait for a writer, and a feed
// load with it, so LoadDir must refuse it at once, naming the path.
func TestLoadDirRefusesFIFO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spam.report")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := LoadDir(dir)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a regular file") {
			t.Fatalf("LoadDir = %v, want a not-a-regular-file error naming %s", err, path)
		}
	case <-time.After(time.Second):
		t.Fatal("LoadDir is still blocked on the FIFO after a second")
	}
}
