package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"
)

// TestSMPGolden pins the table rows EXT-SMP (experiments -exp smp)
// prints: misses and migrations of global RM, global EDF and the
// partitioned mapping.
func TestSMPGolden(t *testing.T) {
	const want = "559fb06a2c15f37fc901f70070fa1bfdd84ec8c08e679d123aee0582eed59e15"
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	smpDhall()
	os.Stdout = stdout
	w.Close()
	var rows []string
	sc := bufio.NewScanner(strings.NewReader(string(<-out)))
	for sc.Scan() {
		line := sc.Text()
		for _, mapping := range []string{"global RM (", "global EDF (", "partitioned RM ("} {
			if strings.HasPrefix(line, mapping) {
				rows = append(rows, line)
			}
		}
	}
	table := strings.Join(rows, "\n")
	sum := sha256.Sum256([]byte(table))
	if got := hex.EncodeToString(sum[:]); len(rows) != 3 || got != want {
		t.Errorf("EXT-SMP rows sha256 %s, want %s:\n%s", got, want, table)
	}
}
