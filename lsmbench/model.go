package main

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"
)

// Keys are 16 bytes: the key index as fixed-width lowercase hex, so byte
// order equals index order and a scan maps straight back onto the model.
const keyLen = 16

// Values are 100 bytes and certify themselves:
//
//	[0:8)    key index (big endian)
//	[8:16)   version: the writer's operation number that wrote it
//	[16:50)  pseudo-random bytes derived from (key, version)
//	[50:96)  zeros, so about half of each value compresses away
//	[96:100) CRC-32C over key || value[0:96]
//
// A reader can therefore check any returned value on the spot: it must
// name the key it was read under, carry a valid checksum, and name a
// version the writer issued for that key.
const (
	valueLen   = 100
	randomEnd  = 50
	checksumAt = 96
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const hexDigits = "0123456789abcdef"

// putKey writes the key for index k into dst[:keyLen].
func putKey(dst []byte, k uint64) {
	for i := keyLen - 1; i >= 0; i-- {
		dst[i] = hexDigits[k&0xf]
		k >>= 4
	}
}

// parseKey inverts putKey.
func parseKey(b []byte) (uint64, bool) {
	if len(b) != keyLen {
		return 0, false
	}
	var k uint64
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			k = k<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			k = k<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return k, true
}

// splitmix64 is the stateless mixer that derives value bytes and seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillValue writes the value for (k, ver) under key into dst[:valueLen].
func fillValue(dst, key []byte, k, ver uint64) {
	binary.BigEndian.PutUint64(dst[0:8], k)
	binary.BigEndian.PutUint64(dst[8:16], ver)
	x := splitmix64(k<<20 ^ ver)
	for i := 16; i < randomEnd; i += 8 {
		x = splitmix64(x)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(dst[i:randomEnd], w[:])
	}
	clear(dst[randomEnd:checksumAt])
	c := crc32.Update(crc32.Checksum(key, castagnoli), castagnoli, dst[:checksumAt])
	binary.BigEndian.PutUint32(dst[checksumAt:valueLen], c)
}

// checkValue verifies that v certifies itself as a value written under key
// and returns the version it names.
func checkValue(key, v []byte) (ver uint64, ok bool) {
	k, kok := parseKey(key)
	if !kok || len(v) != valueLen || binary.BigEndian.Uint64(v[0:8]) != k {
		return 0, false
	}
	c := crc32.Update(crc32.Checksum(key, castagnoli), castagnoli, v[:checksumAt])
	if binary.BigEndian.Uint32(v[checksumAt:valueLen]) != c {
		return 0, false
	}
	return binary.BigEndian.Uint64(v[8:16]), true
}

// A model entry packs the last operation on a key as version<<2 | flags.
// Zero means the key was never written.
const (
	flagDelete    = 1 // the operation was a delete
	flagUncertain = 2 // the operation returned an error: its outcome is unknown
)

func entry(ver uint64, del bool) uint64 {
	e := ver << 2
	if del {
		e |= flagDelete
	}
	return e
}

func entryVer(e uint64) uint64 { return e >> 2 }
func entryDel(e uint64) bool   { return e&flagDelete != 0 }

// model is the benchmark's own record of what the store must hold. The
// writer goroutine is its only writer; concurrent readers load it to bound
// what a read may legally return:
//
//   - issued[k] is the last operation the writer started on k,
//   - acked[k] the last one the store acknowledged,
//   - lastDel[k] the version of the last delete started on k.
type model struct {
	issued  []atomic.Uint64
	acked   []atomic.Uint64
	lastDel []atomic.Uint64
}

func newModel(keySpace int) *model {
	return &model{
		issued:  make([]atomic.Uint64, keySpace),
		acked:   make([]atomic.Uint64, keySpace),
		lastDel: make([]atomic.Uint64, keySpace),
	}
}

// begin records that an operation on k is about to be sent.
func (m *model) begin(k, ver uint64, del bool) {
	m.issued[k].Store(entry(ver, del))
	if del {
		m.lastDel[k].Store(ver)
	}
}

// finish records the store's answer to the operation begin announced.
func (m *model) finish(k, ver uint64, del bool, err error) {
	e := entry(ver, del)
	if err != nil {
		e |= flagUncertain
	}
	m.acked[k].Store(e)
}

// readOK reports whether a read of k that started when acked[k] was
// before, and returned (found, ver), is legal given everything the writer
// issued by the time the read ended. A value must be at least as new as
// the last acknowledged write and no newer than the last issued one; a
// miss is legal only if the key was absent or deleted when the read began,
// or a delete was issued while it ran. Keys whose last operation failed
// accept any answer.
func (m *model) readOK(k uint64, before uint64, found bool, ver uint64) bool {
	if before&flagUncertain != 0 {
		return true
	}
	if !found {
		return before == 0 || entryDel(before) || m.lastDel[k].Load() > entryVer(before)
	}
	lo := entryVer(before)
	if entryDel(before) {
		lo++
	}
	return ver >= lo && ver <= entryVer(m.issued[k].Load())
}

// expect returns what a quiescent store must answer for k: found and the
// version, or not found. uncertain is set when the last operation failed.
func (m *model) expect(k uint64) (found bool, ver uint64, uncertain bool) {
	e := m.acked[k].Load()
	if e&flagUncertain != 0 {
		return false, 0, true
	}
	if e == 0 || entryDel(e) {
		return false, 0, false
	}
	return true, entryVer(e), false
}
