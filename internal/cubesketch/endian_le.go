//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package cubesketch

// hostLittleEndian selects the body codec (codec.go): here the byte-copy
// one, because a bucket array's memory is its serialized image on a
// little-endian host.
const hostLittleEndian = true
