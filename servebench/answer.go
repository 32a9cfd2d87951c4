package main

import (
	"bytes"
	"errors"
	"fmt"
)

// answer is one served localization: the wire object
// {"rp":..,"floor":..,"backend":..,"version":..}.
type answer struct {
	rp, floor int
	version   uint64
}

// parseAnswer decodes a single /v1/localize response body without
// allocating; the load generator parses every response it checks.
func parseAnswer(b []byte) (answer, error) {
	a, _, err := scanAnswer(b, 0)
	return a, err
}

// checkAnswer decodes a single response and compares it with the expected
// answer; a mismatch is an errWrong.
func checkAnswer(body []byte, want answer) (answer, error) {
	a, err := parseAnswer(body)
	if err != nil {
		return a, err
	}
	if a != want {
		return a, fmt.Errorf("%w: served %+v, direct PredictInto on the same snapshot gives %+v", errWrong, a, want)
	}
	return a, nil
}

// parseBatch decodes a /v1/localize/batch response into dst (reused). A row
// that carries an error fails the whole parse: the benchmark's workloads
// send only valid rows.
func parseBatch(b []byte, dst []answer) ([]answer, error) {
	dst = dst[:0]
	if bytes.Contains(b, []byte(`"error"`)) {
		return dst, fmt.Errorf("batch response carries a row error: %.200s", b)
	}
	pos := 0
	for {
		if bytes.Index(b[pos:], []byte(`"rp":`)) < 0 {
			return dst, nil
		}
		a, next, err := scanAnswer(b, pos)
		if err != nil {
			return dst, err
		}
		dst = append(dst, a)
		pos = next
	}
}

// scanAnswer reads the rp, floor and version fields of the first result
// object at or after pos and returns the offset just past it.
func scanAnswer(b []byte, pos int) (answer, int, error) {
	var a answer
	var err error
	var v int64
	if v, pos, err = intField(b, pos, `"rp":`); err != nil {
		return a, pos, err
	}
	a.rp = int(v)
	if v, pos, err = intField(b, pos, `"floor":`); err != nil {
		return a, pos, err
	}
	a.floor = int(v)
	if v, pos, err = intField(b, pos, `"version":`); err != nil {
		return a, pos, err
	}
	a.version = uint64(v)
	return a, pos, nil
}

var errField = errors.New("field missing from response")

func intField(b []byte, pos int, key string) (int64, int, error) {
	i := bytes.Index(b[pos:], []byte(key))
	if i < 0 {
		return 0, pos, fmt.Errorf("%w: %s in %.200s", errField, key, b)
	}
	i += pos + len(key)
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == start {
		return 0, i, fmt.Errorf("%w: %s has no number in %.200s", errField, key, b)
	}
	if neg {
		v = -v
	}
	return v, i, nil
}
