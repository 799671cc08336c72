package core

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// The fixture below was printed by the commit before the bn256 kernel round
// (unrolled Montgomery multiplication, Legendre-filtered hash-to-curve,
// mixed-addition Pippenger, projective Miller loop): a private key from
// KeyGen(3, rand(13)), the authenticators Setup gave it for a 600-byte file,
// a challenge for 4 of the 7 chunks and, as fullWidthProof, the private proof
// that answered it when the challenge coefficients were drawn from all of Zn.
// proof answers the same challenge under 128-bit coefficients
// (prf.Coefficients); it was printed when they were introduced.
var parentFixture = struct{ sk, auths, challenge, proof, fullWidthProof string }{
	sk: "64736e011407bf28e80aebf04cf757812428b0763112efb33b6f4fad7deb445e54d8cac4061761a97a43d41fa5385d97" +
		"54040908cb95aaec3927e88d053271d3388e83b400000003110803b2e8eb62427b0132722c8c4367ed0d72a1f101878f" +
		"646b9de16ddf226120afc2edcdc025c5e3ce8fa507509a307ce6f8fab521982dbf7f4e27c3b5db4d008a9dfd4d7990a7" +
		"f4542dd1b5a39b146b4ce39015d5ea85f8a3be28f7c95a7427b8def935a98ade40068e32ddb92f93ca350c2b2ac2f3a7" +
		"81cd0f0f71fb1a882043d8bf1811a50f310b8d1c156a2219256c8e78fd3875f3a35ccb92728554d4034aa2e42eef78d6" +
		"2fc9027f3723d122e232a2cee65d032d68c20902742f03d8294160387988712f50b6aebbc0790c38ab4bfc23cae4ed12" +
		"32503142886dfd13242636fb52a6ba63e924b874c2caa2ab4e8843aba3c317e77b0bbfd8759af00b2296ba1412acec2f" +
		"c9a0c0f71a1e479a49f3773c497b685e6eb1ebbf6b1a4beb000000000000000000000000000000000000000000000000" +
		"0000000000000001934df64d0bcfea96e68551c61a95747b5519efc6cb20c5efd2810a87d038cc8187d588c8dab8b945" +
		"82a5e676bb772cb12e7dd74872a59efb0b1c7ae371578c300ddbf5fafb22d2a4669c6b3c68e27ed85f4b2ae36d3e9baa" +
		"fa543bec1ea19bce2847b475811d12cb8c82d04f44111c01c459800fa37204d86bbed6499f6f2ffc29eeb24fca71b2f5" +
		"847e1527db7db4413998af9bc9341059316a4a8179a23d451a701b85341f4e47bfd6b3ceff43ba17184a869c08a5d76c" +
		"a3ec6d5fa1a369ee19d1aec653df5bc179ca03b3dbeeb0416eccbc6a631ffb0c112e15d06423316f03ba5898d8dbfe22" +
		"2db626ae5cf774a9d5d6a04f95e56e98fcc865f803309031",
	auths: "00000007000000000a55b0d9ae9136b2ad23e2d2bdc3883de29596116c73b8c848c3b310889d7af100000001a904e8ae" +
		"dbb4f8c11e2b221c667c5f9164f90c4c9d7c32136a965162dc14887f00000002006a57ef5e159d3d208110e3095d5a20" +
		"e64f384465fcd6f5e961ac5a4c5ee4370000000311cd4d436de01e8815e303add120541fb5a442e4da23f0f9c9bb0fbe" +
		"2d4b57630000000480fba4e4b7f427aac262b81507b9a263c14de3e67b83f7a045f735b7f7bc18c800000005966ca5b9" +
		"576638ec3c85bde4284df7bdfe624a9a1d0c50e785e978ac42bc5251000000061e31cf34c86e5d18f84b8c29de4c5f5f" +
		"b6458b9c5e4a82275a668a594f9f8155",
	challenge: "7900bb519ab51486bac93fba8034cd010e8ec324c4a888ba74a4907fc8382ee93add2f053ebd404abb88852515862c15" +
		"00000004",
	proof: "8a08fea32d36b700aeed4d63e22faf77a5986cfa05b653b19f49613b2d5ed05600b7202bbede7488258dd3c00e1da421" +
		"1e55c35a54158540fab0b0a0d973497286da0b9e12c16934fe06ded3369a80e8d5a05b1498d1d9090f6761d06014f042" +
		"153230524823a4649f0a38853dfdc297b87d90723c7642cf7ab8dc17527a54db0dc868589032573b7a4fa3c225c0d6f5" +
		"60fa94bf201414abc221afa72b84127604874f9706c3969e87861a642229f922eab0296ae22271adccd6f96415c35c0d" +
		"212b6b739dc55f37d3bd72df24eb54380c777e010eadbe89a396a3a230030d3c2431b12a7df2ca0af98c0e7197b54cc4" +
		"eb36796d9eb42f46d70fd3484fbe820104b52bb506cd8e4001be87c03d6a9a6dd32ffc7231a42fa2863847438bc63e63",
	fullWidthProof: "a91fe091e3ddfd098aad23620a4036c6bb87c8dbf3d63a52097b9aca5149dd3e2f69fa04c632b18be7b6b0720127746f" +
		"3fa0d4c685b7f12c35d0618745a7fc54af651efb79e0719560588279b0124c5ed00966dd4df42a576d8c7523dc4ab94e" +
		"1832a76f47b281f228e36232721a7c58b27cf1d2f9e24babdb2fe656f0a185f024868c4d7ef8069f7b13a2bc8a04e5cf" +
		"5392341805d3059caac0cceb4cd8b2752ec5ab70fa5fecb56e163deed7b7ab9a16c846cd3447d369ee535ec6361e254a" +
		"1eac285f901d833cb20d74270da83a2a4ab76971896b4827e084251f8d7e8a0328920b8d91b9d61fec7ca9f47c809b2b" +
		"3d116642dcd6e4b39800d552daabef7e20fb58af4e78a62758f4cd6d40d415651ac32d6df56f9bf542af9798a652995b",
}

// TestCrossVersionFixture checks byte identity and mutual verifiability with
// that commit: Setup here reproduces its authenticators exactly (so what this
// version writes, it verified), its authenticators and the fixture's proof
// verify here, and a proof made here from its authenticators verifies too.
// The full-width proof is the negative vector of the protocol break: the same
// 48 challenge bytes now expand to other coefficients, so both verifiers
// reject it.
func TestCrossVersionFixture(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sk, err := UnmarshalPrivateKey(unhex(parentFixture.sk))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	ef, err := EncodeFile(data, 3)
	if err != nil {
		t.Fatal(err)
	}

	auths, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := MarshalAuthenticators(auths)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, unhex(parentFixture.auths)) {
		t.Fatal("Setup no longer produces the parent's authenticator bytes")
	}

	parentAuths, err := UnmarshalAuthenticators(unhex(parentFixture.auths))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAuthenticators(sk.Pub, ef, parentAuths, nil); err != nil {
		t.Fatalf("parent authenticators rejected: %v", err)
	}

	ch, err := UnmarshalChallengeBinary(unhex(parentFixture.challenge))
	if err != nil {
		t.Fatal(err)
	}
	fixtureProof, err := UnmarshalPrivateProof(unhex(parentFixture.proof))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPrivate(sk.Pub, ef.NumChunks(), ch, fixtureProof) {
		t.Fatal("fixture proof rejected")
	}
	if verdicts := VerifyBatch([]*BatchItem{{Pub: sk.Pub, NumChunks: ef.NumChunks(), Challenge: ch, Proof: fixtureProof}}, nil); !verdicts[0] {
		t.Fatal("fixture proof rejected by the batch verifier")
	}
	fullWidth, err := UnmarshalPrivateProof(unhex(parentFixture.fullWidthProof))
	if err != nil {
		t.Fatal(err)
	}
	if VerifyPrivate(sk.Pub, ef.NumChunks(), ch, fullWidth) {
		t.Fatal("proof under full-width coefficients accepted")
	}
	if verdicts := VerifyBatch([]*BatchItem{{Pub: sk.Pub, NumChunks: ef.NumChunks(), Challenge: ch, Proof: fullWidth}}, nil); verdicts[0] {
		t.Fatal("proof under full-width coefficients accepted by the batch verifier")
	}

	prover, err := NewProver(sk.Pub, ef, parentAuths)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := prover.ProvePrivate(ch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPrivate(sk.Pub, ef.NumChunks(), ch, proof) {
		t.Fatal("proof over the parent's authenticators rejected")
	}
	// sigma and psi are deterministic in (file, authenticators, challenge).
	if !proof.Sigma.Equal(fixtureProof.Sigma) || !proof.Psi.Equal(fixtureProof.Psi) {
		t.Fatal("sigma/psi differ from the fixture's proof")
	}
}

// TestProvePrivateGolden pins every byte of a private proof, the commitment R
// included: the fixture's key, file, authenticators and challenge and a fixed
// stream for the mask z give the 288 bytes below. R was printed by the commit
// before GT.ScalarMult split its exponent along the Frobenius; sigma, y' and
// psi were re-printed when the challenge coefficients became 128 bits wide,
// and R did not change with them.
func TestProvePrivateGolden(t *testing.T) {
	const golden = "8a08fea32d36b700aeed4d63e22faf77a5986cfa05b653b19f49613b2d5ed05606843d368743a6047059da08b7712d75" +
		"19412c0f6df30cc27d9bac4a2705875886da0b9e12c16934fe06ded3369a80e8d5a05b1498d1d9090f6761d06014f042" +
		"04d20684571aad4239bf5fc9442a7405aa585b497df094d1996d3a541993354f1291fcca3e30610088da841f7f802d89" +
		"d4627f3209a5987bbaf0164267335dc22d125d8087b96b8a0a7e7e829bf4842028dcdc9d3147d91fae975a24bd5ce0ff" +
		"00c18944666e5105c4519fc65983152e1961955202b647b072e5272baba911e914d92bc531fbe07fe871ef0114e6b605" +
		"f25662a94ca444c4cda2bf09d893e4572086e5df2b1e62edb39e1832bc0bf46785bcaabbdffc4ed4030b94902307dcfe"
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sk, err := UnmarshalPrivateKey(unhex(parentFixture.sk))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	ef, err := EncodeFile(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := UnmarshalAuthenticators(unhex(parentFixture.auths))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := UnmarshalChallengeBinary(unhex(parentFixture.challenge))
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(sk.Pub, ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := prover.ProvePrivate(ch, nil, bytes.NewReader(bytes.Repeat([]byte("golden z"), 16)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := proof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != golden {
		t.Fatalf("private proof bytes changed:\n got %x\nwant %s", got, golden)
	}
}
