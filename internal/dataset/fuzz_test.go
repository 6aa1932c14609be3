package dataset

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// ddoshieldRows is the head of a `ddoshield -out` CSV: its header and a few
// benign and malicious rows.
const ddoshieldRows = `proto_tcp,proto_udp,src_port,dst_port,pkt_len,flag_syn,flag_ack,flag_fin,flag_rst,flag_psh,win_pkt_count,win_byte_count,win_mean_pkt_len,win_dst_port_entropy,win_src_addr_entropy,win_unique_dst_ports,win_unique_srcs,win_syn_count,win_synack_count,win_syn_noack_ratio,win_short_lived_conns,win_repeated_conn_attempts,win_flow_count,win_seq_std,win_udp_fraction,win_mean_interarrival,label
1,0,0.500022888532845,0.029526207370107575,54,1,0,0,0,0,373,238657,639.8310991957104,1.4774286091553641,1.4893897231494801,4,5,5,5,0.8333333333333334,0,1,10,0.2524080293200833,0,0.002224972043010753,0
1,0,0.029526207370107575,0.500022888532845,1454,0,1,0,0,0,417,282747,678.0503597122303,1.6268577620049196,1.3381653344823552,6,4,3,3,0.75,0,1,8,0.16283136244867485,0,0.002371128076923077,0
1,0,0.6704356450751506,0.0012207217517357137,54,1,0,0,0,0,4636,2.324396e+06,501.37963761863676,2.6249544788058565,5.828658629150355,14,814,1591,1,795.5,1587,490,1615,0.30097365620944794,0,0.0002156254584681769,1
`

// FuzzReadCSV: a dataset CSV is user input (cmd/trainids reads whatever it
// is given). Whatever the bytes, ReadCSV returns an error or a dataset with
// finite features and labels of the two classes only, which WriteCSV and
// ReadCSV bring back with the same names, the same labels and the same
// float bits.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte(ddoshieldRows))
	f.Add([]byte("a,b,label\n1,-0,1\n\n0x1p-3,1e-320,1\n"))
	f.Add([]byte("a,b,label\n1,-0,1\nNaN,+Inf,0\n"))
	f.Add([]byte("a,label\n1,5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A rewritten row can be longer than its input ("1e9" is written
		// "1e+09") and ReadCSV refuses a row past 1 MB.
		if len(data) > 1<<16 {
			return
		}
		d, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, s := range d.Samples {
			if s.Y != Benign && s.Y != Malicious {
				t.Fatalf("sample %d: label %d accepted", i, s.Y)
			}
			for j, v := range s.X {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("sample %d: feature %d is %v, accepted", i, j, v)
				}
			}
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV: %v\n%s", err, buf.String())
		}
		if !slices.Equal(back.Names, d.Names) || back.Len() != d.Len() {
			t.Fatalf("names %q and %d samples came back as %q and %d", d.Names, d.Len(), back.Names, back.Len())
		}
		for i, s := range d.Samples {
			b := back.Samples[i]
			same := b.Y == s.Y && len(b.X) == len(s.X)
			for j := 0; same && j < len(s.X); j++ {
				same = math.Float64bits(b.X[j]) == math.Float64bits(s.X[j])
			}
			if !same {
				t.Fatalf("sample %d %v/%d came back as %v/%d", i, s.X, s.Y, b.X, b.Y)
			}
		}
	})
}
