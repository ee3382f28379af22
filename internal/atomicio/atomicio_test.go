package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// debris lists any "<base>.tmp*" siblings of path: the leak Write must
// never leave behind.
func debris(t *testing.T, path string) []string {
	t.Helper()
	stale, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	return stale
}

// TestWriteCleansTempOnError: every failing Write removes its temp file
// and installs nothing — when fill fails after writing part of the file,
// and when the rename fails because the target is a directory.
func TestWriteCleansTempOnError(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ck.json")
	boom := errors.New("encoder failed")
	err := Write(target, func(w io.Writer) error {
		if _, err := io.WriteString(w, strings.Repeat("x", 3*bufSize)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write returned %v, want the fill error", err)
	}
	if stale := debris(t, target); len(stale) != 0 {
		t.Fatalf("failed fill leaked temp files: %v", stale)
	}
	if _, err := os.Stat(target); !os.IsNotExist(err) {
		t.Fatalf("failed fill installed a file: %v", err)
	}

	blocked := filepath.Join(dir, "dir.json")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, []byte("{}")); err == nil {
		t.Fatal("rename onto a directory should fail")
	}
	if stale := debris(t, blocked); len(stale) != 0 {
		t.Fatalf("failed rename leaked temp files: %v", stale)
	}
}

// TestWriteSweepsStaleTemps: a writer killed between CreateTemp and Rename
// leaves a randomized temp name no later write reuses; the next successful
// Write must sweep it, and only its own base's temps.
func TestWriteSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ck.json")
	for _, stale := range []string{target + ".tmp1111", target + ".tmp2222"} {
		if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bystander := filepath.Join(dir, "other.json.tmp999")
	if err := os.WriteFile(bystander, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Larger than the write buffer, in uneven pieces, so the content
	// reaches the file through several flushes.
	var want strings.Builder
	for i := range 3000 {
		want.WriteString(strings.Repeat(string(rune('a'+i%26)), i%500))
	}
	err := Write(target, func(w io.Writer) error {
		for s := want.String(); len(s) > 0; {
			n := min(len(s), 777)
			if _, err := io.WriteString(w, s[:n]); err != nil {
				return err
			}
			s = s[n:]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stale := debris(t, target); len(stale) != 0 {
		t.Fatalf("successful write left stale temps: %v", stale)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("sweep must only touch its own base's temps: %v", err)
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("installed %d bytes, want the %d written", len(got), want.Len())
	}

	// WriteFile replaces the installed file whole.
	if err := WriteFile(target, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(target); string(got) != "next" {
		t.Fatalf("WriteFile installed %q, want %q", got, "next")
	}
}
