// Package errtest exercises the errcheck checker: silently dropped
// errors are flagged; the documented exemptions (defer/go, fmt to
// stderr, in-memory buffers, hash.Hash and maphash.Hash writes) and
// suppressed sites pass.
package errtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"io"
	"os"
)

func mayFail() error { return nil }

func twoResults() (int, error) { return 0, nil }

func drops() {
	mayFail()            // want "mayFail discarded by a bare call"
	_ = mayFail()        // want "mayFail discarded with _"
	n, _ := twoResults() // want "twoResults discarded with _"
	_ = n
}

func handled() error {
	if err := mayFail(); err != nil {
		return err
	}
	n, err := twoResults()
	if err != nil {
		return err
	}
	_ = n
	return nil
}

func exemptions(f *os.File) {
	defer f.Close() // deferred cleanup: exempt by construction
	go mayFail()    // fire-and-forget goroutine: the error has nowhere to go
	fmt.Println("hello")
	fmt.Fprintf(os.Stderr, "x")
	var buf bytes.Buffer
	buf.WriteString("y")
	fmt.Fprintln(&buf, "z")
	h := sha256.New()
	h.Write([]byte("never errors"))
	h64 := fnv.New64a()
	io.WriteString(h64, "nor this")
	var mh maphash.Hash
	mh.WriteString("nor a maphash")
}

func deferredClosureStillChecked(f *os.File) {
	defer func() {
		f.Close() // want "Close discarded by a bare call"
	}()
}

func suppressed() {
	mayFail() //ldp:nolint errcheck — fixture demonstrating suppression
}
