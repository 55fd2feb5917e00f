"""Seeded benchmark inputs, built from rumorvet.synthetic's public API.

The stock generator posts every reply within minutes of its thread and
uses a ~100-word lexicon. Three rewrites of its output make the inputs
exercise what the benchmark measures, always through `dataclasses.replace`
on `make_corpus` output:

* reply ages spread uniformly over 0-7 days, so the 1/3/5-day windows
  keep different thread subsets;
* an optional noise vocabulary: extra tokens from a seeded 30k-word list
  on every text, so trained models reach real size (MBs, not KBs);
* optional nested non-primary replies under each primary reply, so the
  directory loader walks deep trees.

Unverified threads stay reply-free, so abstention still recovers them and
the planted labels stay exactly recoverable.
"""

from __future__ import annotations

import dataclasses
import random
import string
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

from rumorvet.corpus import Conversation, Post, Reply, clean_text, save_conversations_jsonl
from rumorvet.synthetic import (
    AGREE,
    ASSURANCE,
    DISAGREE,
    FILLER,
    HEDGE,
    LIE,
    TRUTH,
    SyntheticCorpus,
    SyntheticSpec,
    make_corpus,
    write_conversation_dir,
    write_key_file,
    write_tsv,
)

MAX_REPLY_AGE_S = 7 * 86400
NOISE_PER_TEXT = 8  # noise tokens appended to every text when a noise vocabulary is used
_LEXICON = frozenset(FILLER + HEDGE + ASSURANCE + TRUTH + LIE + AGREE + DISAGREE)


@dataclass(frozen=True)
class InputSpec:
    """Sizes of one workload's generated inputs."""

    train_per_cell: int
    test_per_cell: int
    replies_per_thread: int
    pretrain_per_class: int
    noise_vocab: int = 0  # 0: stock lexicon only
    nested_per_primary: int = 0  # mean; each primary gets 0..2*mean nested replies


def noise_vocabulary(size: int, rng: random.Random) -> list[str]:
    """`size` distinct lowercase words, none in the planted lexicons."""
    words: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 9)))
        if word not in _LEXICON and not word.startswith("http"):
            words.add(word)
    return sorted(words)


def _with_text(post: Post, text: str) -> Post:
    return dataclasses.replace(post, text_raw=text, text_clean=clean_text(text))


def _noisy(text: str, vocab: list[str], rng: random.Random) -> str:
    return " ".join([text, *(rng.choice(vocab) for _ in range(NOISE_PER_TEXT))])


def _rewrite(
    conv: Conversation, spec: InputSpec, vocab: list[str], rng: random.Random
) -> Conversation:
    """Spread reply ages, add noise tokens and nested replies to one thread."""

    def noise(text: str) -> str:
        return _noisy(text, vocab, rng) if vocab else text

    thread = _with_text(conv.thread, noise(conv.thread.text_raw)) if vocab else conv.thread
    replies: list[Reply] = []
    for r in conv.replies:
        age = timedelta(seconds=rng.randrange(MAX_REPLY_AGE_S + 1))
        post = dataclasses.replace(r.post, created_at=thread.created_at + age)
        if vocab:
            post = _with_text(post, noise(post.text_raw))
        replies.append(dataclasses.replace(r, post=post))
        subtree = [post]
        for j in range(rng.randint(0, 2 * spec.nested_per_primary)):
            parent = rng.choice(subtree)
            text = noise(" ".join(rng.choice(FILLER) for _ in range(5)))
            child = Post(
                id=f"{post.id}-n{j:02d}",
                text_raw=text,
                text_clean=clean_text(text),
                # Strictly after its parent, so time order lists parents first.
                created_at=parent.created_at + timedelta(seconds=rng.randrange(60, 3600)),
                platform=post.platform,
            )
            replies.append(Reply(post=child, parent_id=parent.id, is_primary=False))
            subtree.append(child)
    replies.sort(key=lambda r: (r.post.created_at, r.post.id))
    return dataclasses.replace(conv, thread=thread, replies=tuple(replies))


def build_corpus(spec: InputSpec, seed: int) -> SyntheticCorpus:
    """make_corpus output rewritten per `spec`; same seed, same corpus."""
    base = make_corpus(
        SyntheticSpec(
            n_train_per_cell=spec.train_per_cell,
            n_test_per_cell=spec.test_per_cell,
            replies_per_thread=spec.replies_per_thread,
            pretrain_per_class=spec.pretrain_per_class,
            seed=seed,
        )
    )
    rng = random.Random(f"perfbench-{seed}")
    vocab = noise_vocabulary(spec.noise_vocab, rng) if spec.noise_vocab else []

    def text(t: str) -> str:
        return _noisy(t, vocab, rng) if vocab else t

    return SyntheticCorpus(
        train=tuple(_rewrite(c, spec, vocab, rng) for c in base.train),
        test=tuple(_rewrite(c, spec, vocab, rng) for c in base.test),
        hedge=tuple((text(t), label) for t, label in base.hedge),
        deception=tuple((text(t), label) for t, label in base.deception),
        agreement=tuple(((text(a), text(b)), label) for (a, b), label in base.agreement),
    )


def write_inputs(corpus: SyntheticCorpus, root: Path, train_as_dir: bool, test_as_dir: bool) -> None:
    """Lay the corpus out under root: pretrain TSVs, gold keys, and each
    split as a conversation directory tree or a conversations JSONL."""
    write_tsv(corpus.hedge, root / "corpora" / "hedge.tsv")
    write_tsv(corpus.deception, root / "corpora" / "deception.tsv")
    write_tsv(corpus.agreement, root / "corpora" / "agreement.tsv")
    for name, convs, as_dir in (
        ("train", corpus.train, train_as_dir),
        ("test", corpus.test, test_as_dir),
    ):
        write_key_file(convs, root / "keys" / f"{name}-key.json")
        if as_dir:
            for conv in convs:
                write_conversation_dir(conv, root / name)
        else:
            save_conversations_jsonl(convs, root / f"{name}.jsonl")
