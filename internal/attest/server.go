package attest

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/severifast/severifast/internal/kbs"
)

// The HTTP face of the guest-owner service, mirroring the paper's nginx
// attestation server (§6.1): the guest POSTs its report and public key,
// the owner replies with the wrapped secret or a 403.

// wire formats
type attestRequest struct {
	Report   string `json:"report"`    // hex of psp.Report.Marshal()
	GuestPub string `json:"guest_pub"` // hex of the agent's X25519 key
}

type attestResponse struct {
	OwnerPub   string `json:"owner_pub"`
	Nonce      string `json:"nonce"`
	Ciphertext string `json:"ciphertext"`
}

// Handler returns the owner's HTTP handler (POST /attest).
func (o *Owner) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/attest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		var req attestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "json: "+err.Error(), http.StatusBadRequest)
			return
		}
		report, err := hex.DecodeString(req.Report)
		if err != nil {
			http.Error(w, "report hex: "+err.Error(), http.StatusBadRequest)
			return
		}
		guestPub, err := hex.DecodeString(req.GuestPub)
		if err != nil {
			http.Error(w, "guest_pub hex: "+err.Error(), http.StatusBadRequest)
			return
		}
		bundle, err := o.HandleReport(report, guestPub)
		if err != nil {
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		resp := attestResponse{
			OwnerPub:   hex.EncodeToString(bundle.OwnerPub),
			Nonce:      hex.EncodeToString(bundle.Nonce),
			Ciphertext: hex.EncodeToString(bundle.Ciphertext),
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// Headers are gone; nothing more to do.
			return
		}
	})
	return mux
}

// Client posts a report to a remote owner service and returns the bundle.
func Client(url string, reportBytes, guestPub []byte) (*kbs.Bundle, error) {
	req := attestRequest{
		Report:   hex.EncodeToString(reportBytes),
		GuestPub: hex.EncodeToString(guestPub),
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/attest", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("attest: server refused: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var ar attestResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		return nil, err
	}
	ownerPub, err := hex.DecodeString(ar.OwnerPub)
	if err != nil {
		return nil, err
	}
	nonce, err := hex.DecodeString(ar.Nonce)
	if err != nil {
		return nil, err
	}
	ct, err := hex.DecodeString(ar.Ciphertext)
	if err != nil {
		return nil, err
	}
	return &kbs.Bundle{OwnerPub: ownerPub, Nonce: nonce, Ciphertext: ct}, nil
}
